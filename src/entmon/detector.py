"""Pairwise in-plane correlation quantities, monogamy bounds, and
k-product exclusion logic.

The central quantity for a qubit pair (k, l) is the sum of the four squared
correlation-block entries with both indices in the plane orthogonal to each
qubit's z axis: ||P_k T_kl P_l||_F^2 with P = I - a a^T for the unit axis a.
Summed over all pairs with preferred axes it becomes the detection value
M^(pb). A pure state that factors as a product over a partition
(r_1, ..., r_k) can reach at most sum C(r_m, 2) + #{r_m = 2}, so exceeding
that bound excludes the partition. Every verdict here, on a partition, a
threshold or a monogamy sum, is one comparison: ``_exceeds``, the value
beats the bound by more than EPS_DET.

All functions are pure over immutable inputs; stress runs derive per-trial
seeds from the master seed (seed + trial index) so results are reproducible
regardless of scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from .frames import (
    EPS_BLOCH,
    MAXIMIZE,
    ZeroPolicy,
    _random_axes,
    _unit_axes,
    preferred_axes,
)
from .statevec import PureState, make_random_haar
from .tensor import marginals

# strict-inequality margin for every exclusion verdict: the criteria require
# ">", and the margin keeps rounding from manufacturing entanglement claims
EPS_DET = 1e-9


def _exceeds(value: float, bound: float) -> bool:
    """The one verdict rule: ``value`` beats ``bound`` by more than EPS_DET.

    Every partition, threshold and monogamy verdict goes through it.
    """
    return value > bound + EPS_DET


def _margin_text() -> str:
    """-EPS_DET as the stress report prints it: ``-1e-9``, without the
    exponent's leading zero that ``format`` writes (``-1e-09``)."""
    return format(-EPS_DET, "g").replace("e-0", "e-")


# restarts for the maximize zero-policy search (z-axis start + this many
# random starts drawn from the candidate axes)
_MAXIMIZE_RESTARTS = 4

_SIGNED_AXES = [
    (1.0, 0.0, 0.0),
    (-1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, -1.0, 0.0),
    (0.0, 0.0, 1.0),
    (0.0, 0.0, -1.0),
]


_I3 = np.eye(3)


def _projectors(axes: np.ndarray) -> list[np.ndarray]:
    """I - a a^T for every unit axis a: the projector onto its in-plane directions."""
    return list(_I3 - axes[:, :, None] * axes[:, None, :])


def _inplane_sq(block: np.ndarray, P_k: np.ndarray, P_l: np.ndarray) -> float:
    B = P_k @ block @ P_l
    return float(np.vdot(B, B))


def _check_pair(n: int, k: int, l: int) -> None:
    if k == l:
        raise ValueError("pair indices must be distinct")
    if not 0 <= k < l < n:
        raise ValueError(f"pair indices must satisfy 0 <= k < l < {n}, got ({k}, {l})")


def m_kl(state: PureState, axes, k: int, l: int) -> float:
    """Sum of the four squared in-plane block entries of pair (k, l) in frames
    with the given unit z axes (shape (n, 3)); always in [0, 2]."""
    P = _projectors(_unit_axes(axes, state.n))
    _check_pair(state.n, k, l)
    _, blocks = marginals(state)
    return _inplane_sq(blocks[k, l], P[k], P[l])


def m_total(state: PureState, axes) -> float:
    """Sum of m_kl over all qubit pairs for the given unit z axes."""
    P = _projectors(_unit_axes(axes, state.n))
    _, blocks = marginals(state)
    return sum(
        _inplane_sq(blocks[k, l], P[k], P[l]) for k, l in combinations(range(state.n), 2)
    )


def m_pb(state: PureState, policy: ZeroPolicy | None = None) -> float:
    """Detection value: m_total with every qubit's preferred axis.

    For the maximize policy, qubits with vanishing Bloch vector get their z
    axis chosen by seeded random-restart coordinate ascent over the policy's
    candidate axes; the result is a lower bound on the supremum and every
    candidate is a valid preferred basis, so detection stays sound.
    """
    policy = policy or ZeroPolicy.canonical()
    n = state.n
    if n == 1:
        return 0.0
    blochs, all_blocks = marginals(state)
    P = _projectors(preferred_axes(blochs, policy))
    blocks = {(k, l): all_blocks[k, l] for k, l in combinations(range(n), 2)}
    zero = [k for k, b in enumerate(blochs) if float(np.linalg.norm(b)) <= EPS_BLOCH]
    if policy.mode == MAXIMIZE and zero:
        return _maximize_zero_axes(blocks, P, zero, policy)
    return sum(_inplane_sq(blocks[(k, l)], P[k], P[l]) for k, l in blocks)


def _maximize_zero_axes(blocks, base_projectors, zero, policy: ZeroPolicy) -> float:
    rng = np.random.default_rng(policy.seed)
    candidates: dict[int, list[np.ndarray]] = {}
    for q in zero:  # fixed qubit order keeps the draw sequence deterministic
        axes = rng.standard_normal((policy.samples, 3))
        norms = np.linalg.norm(axes, axis=1)
        degenerate = norms < 1e-12
        axes[degenerate] = (0.0, 0.0, 1.0)
        norms[degenerate] = 1.0
        axes /= norms[:, None]
        candidates[q] = _projectors(np.vstack([_SIGNED_AXES, axes]))

    pairs = list(blocks)
    pairs_of = {q: [p for p in pairs if q in p] for q in zero}

    def total(P) -> float:
        return sum(_inplane_sq(blocks[(k, l)], P[k], P[l]) for k, l in pairs)

    def local_sum(P, q) -> float:
        return sum(_inplane_sq(blocks[(k, l)], P[k], P[l]) for k, l in pairs_of[q])

    starts = [{q: None for q in zero}]
    for _ in range(_MAXIMIZE_RESTARTS):
        starts.append({q: int(rng.integers(len(candidates[q]))) for q in zero})

    best = -math.inf
    for start in starts:
        P = list(base_projectors)
        for q, idx in start.items():
            if idx is not None:
                P[q] = candidates[q][idx]
        value = total(P)
        while True:
            before = value
            for q in zero:
                current = local_sum(P, q)
                best_local, best_candidate = current, None
                saved = P[q]
                for C in candidates[q]:
                    P[q] = C
                    s = local_sum(P, q)
                    if s > best_local:
                        best_local, best_candidate = s, C
                P[q] = saved if best_candidate is None else best_candidate
                value += best_local - current
            if value - before < 1e-9:
                break
        best = max(best, total(P))
    return best


@dataclass(frozen=True)
class MonogamyReport:
    """All pairwise trade-off sums for one state and one set of axes, with
    the worst slack against each bound (slack < 0 means a violation)."""

    n: int
    pair_values: dict[tuple[int, int], float]
    two_term_sums: dict[tuple[tuple[int, int], tuple[int, int]], float]
    triple_sums: dict[tuple[int, int, int], float]
    total: float
    total_bound: float
    pair_slack: float
    two_term_slack: float
    triple_slack: float
    total_slack: float

    @property
    def min_slack(self) -> float:
        return min(self.pair_slack, self.two_term_slack, self.triple_slack, self.total_slack)


def _monogamy_bounds(n: int) -> dict[str, float]:
    """The bound of each monogamy family of n qubits, in report order: every
    pair value, every two-term sum over a common qubit, every triple sum, and
    the total (2 for one pair, C(n,2) beyond)."""
    total = 2.0 if n == 2 else float(math.comb(n, 2))
    return {"pair": 2.0, "two_term": 2.0, "triple": 3.0, "total": total}


def monogamy_check(state: PureState, axes) -> MonogamyReport:
    """Evaluate every pairwise bound (<= 2), every common-qubit two-term sum
    (<= 2), every three-qubit triple sum (<= 3), and the global bound, for
    the given unit z axes (shape (n, 3))."""
    n = state.n
    if n < 2:
        raise ValueError("monogamy bounds need at least 2 qubits")
    P = _projectors(_unit_axes(axes, n))
    _, blocks = marginals(state)
    values = {(k, l): _inplane_sq(blocks[k, l], P[k], P[l]) for k, l in combinations(range(n), 2)}

    two_term: dict[tuple[tuple[int, int], tuple[int, int]], float] = {}
    triple: dict[tuple[int, int, int], float] = {}
    if n >= 3:
        for q in range(n):
            touching = [p for p in values if q in p]
            for p1, p2 in combinations(touching, 2):
                two_term[(p1, p2)] = values[p1] + values[p2]
        for k, l, m in combinations(range(n), 3):
            triple[(k, l, m)] = values[(k, l)] + values[(l, m)] + values[(k, m)]

    total = sum(values.values())
    bounds = _monogamy_bounds(n)
    return MonogamyReport(
        n=n,
        pair_values=values,
        two_term_sums=two_term,
        triple_sums=triple,
        total=total,
        total_bound=bounds["total"],
        pair_slack=min(bounds["pair"] - v for v in values.values()),
        two_term_slack=min((bounds["two_term"] - v for v in two_term.values()), default=math.inf),
        triple_slack=min((bounds["triple"] - v for v in triple.values()), default=math.inf),
        total_slack=bounds["total"] - total,
    )


@dataclass(frozen=True)
class StressSummary:
    """Worst observed slacks over a batch of random states with random axes."""

    n: int
    trials: int
    seed: int
    min_pair_slack: float
    min_two_term_slack: float
    min_triple_slack: float
    min_total_slack: float
    max_pair_value: float
    violations: int

    @property
    def min_slack(self) -> float:
        return min(
            self.min_pair_slack,
            self.min_two_term_slack,
            self.min_triple_slack,
            self.min_total_slack,
        )


def monogamy_stress(n: int, trials: int, seed: int) -> StressSummary:
    """Run monogamy_check on Haar-random states with uniformly random local
    axes; trial i uses state seed ``seed + i`` and takes its axes as the z rows
    of n ``random_rotation`` draws from rng ``[seed, i]``. A violation (a sum
    that exceeds its bound by the verdict rule) falsifies the implementation,
    not the bounds."""
    if n < 2:
        raise ValueError("stress runs need at least 2 qubits")
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    bounds = _monogamy_bounds(n)
    mins = [math.inf] * 4
    max_pair = -math.inf
    violations = 0
    for i in range(trials):
        st = make_random_haar(n, seed + i)
        frame_rng = np.random.default_rng([seed, i])
        rep = monogamy_check(st, _random_axes(frame_rng, n))
        slacks = (rep.pair_slack, rep.two_term_slack, rep.triple_slack, rep.total_slack)
        mins = [min(a, b) for a, b in zip(mins, slacks)]
        max_pair = max(max_pair, max(rep.pair_values.values()))
        sums = (rep.pair_values.values(), rep.two_term_sums.values(), rep.triple_sums.values(),
                (rep.total,))
        violations += sum(_exceeds(v, b) for b, vs in zip(bounds.values(), sums) for v in vs)
    return StressSummary(
        n=n,
        trials=trials,
        seed=seed,
        min_pair_slack=mins[0],
        min_two_term_slack=mins[1],
        min_triple_slack=mins[2],
        min_total_slack=mins[3],
        max_pair_value=max_pair,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# partitions and thresholds


def _as_partition(parts) -> tuple[int, ...]:
    p = tuple(sorted((int(r) for r in parts), reverse=True))
    if not p or any(r < 1 for r in p):
        raise ValueError(f"partition parts must be positive integers, got {tuple(parts)}")
    return p


def partition_bound(parts) -> float:
    """Largest detection value reachable by a product state over this
    partition: sum of C(r_m, 2) plus one for every part of size exactly 2."""
    p = _as_partition(parts)
    return float(sum(math.comb(r, 2) for r in p) + sum(1 for r in p if r == 2))


def enumerate_partitions(n: int, k: int | None = None) -> list[tuple[int, ...]]:
    """All integer partitions of n (into exactly k parts when given), parts
    non-increasing, in reverse-lexicographic order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"part count must satisfy 1 <= k <= {n}, got {k}")

    def rec(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for p in range(min(max_part, remaining), 0, -1):
            for rest in rec(remaining - p, p):
                yield (p,) + rest

    out = list(rec(n, n))
    if k is not None:
        out = [p for p in out if len(p) == k]
    return out


def partition_table(n: int, value: float) -> list[tuple[tuple[int, ...], float, bool]]:
    """(parts, bound, excluded) for every partition of n, in enumeration order.

    A nontrivial partition is excluded iff ``value`` exceeds its bound by
    more than EPS_DET; the trivial partition (n) always survives.
    """
    table = []
    for parts in enumerate_partitions(n):
        bound = partition_bound(parts)
        table.append((parts, bound, len(parts) > 1 and _exceeds(value, bound)))
    return table


def s_threshold(n: int, k: int) -> float:
    """Exclusion threshold for "not k-product": the largest partition_bound
    over all k-part partitions of n (2 for k = n-1, 4 for k = n-2,
    C(n-k+1, 2) below that)."""
    if n < 3:
        raise ValueError(f"thresholds need n >= 3, got {n}")
    if not 2 <= k <= n - 1:
        raise ValueError(f"k must satisfy 2 <= k <= {n - 1}, got {k}")
    if k == n - 1:
        return 2.0
    if k == n - 2:
        return 4.0
    return float(math.comb(n - k + 1, 2))


def genuine_threshold(n: int) -> float:
    """Exceeding this value certifies genuine n-partite entanglement: it is
    s_2, the threshold for "not biproduct"."""
    if n < 3:
        raise ValueError(f"genuine-multipartite threshold needs n >= 3, got {n}")
    return s_threshold(n, 2)


def depth_threshold(n: int, m: int) -> float:
    """Bipartition-family threshold C(m,2) + C(n-m,2) (+1 when m = 2)."""
    if n < 5:
        raise ValueError(f"depth thresholds need n >= 5, got {n}")
    if not 1 <= m <= n // 2 - 1:
        raise ValueError(f"m must satisfy 1 <= m <= {n // 2 - 1}, got {m}")
    return float(math.comb(m, 2) + math.comb(n - m, 2) + (1 if m == 2 else 0))


def _threshold_families(n: int) -> tuple[dict[int, float], float | None, dict[int, float]]:
    """The threshold families of n: s_k for k = 2..n-1 and the genuine
    threshold s_2 when n >= 3, and the depth thresholds for m = 1..n//2 - 1
    when n >= 5; empty families (and None) below that."""
    s = {k: s_threshold(n, k) for k in range(2, n)} if n >= 3 else {}
    depth = {m: depth_threshold(n, m) for m in range(1, n // 2)} if n >= 5 else {}
    return s, s.get(2), depth


def min_entangled_block(n: int, k: int) -> int:
    """A state that is not k-product has at least ceil(n / (k-1)) mutually
    entangled particles."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return -(-n // (k - 1))


@dataclass(frozen=True)
class PartitionMaxRecord:
    """Brute-force verification that the largest per-part pair-count sum over
    k-part partitions of n is C(n-k+1, 2), attained by (n-k+1, 1, ..., 1)."""

    n: int
    k: int
    bound: float
    max_value: float
    maximizer: tuple[int, ...]
    matches: bool


def verify_partition_term_max(n: int, k: int) -> PartitionMaxRecord:
    """Enumerate all k-part partitions of n and check the pair-count maximum."""
    if not 3 <= n <= 20:
        raise ValueError(f"n must be in 3..20, got {n}")
    if not 2 <= k <= n:
        raise ValueError(f"k must satisfy 2 <= k <= {n}, got {k}")
    best_value = -1.0
    best_parts: tuple[int, ...] = ()
    for p in enumerate_partitions(n, k):
        value = float(sum(math.comb(r, 2) for r in p))
        if value > best_value:
            best_value, best_parts = value, p
    bound = float(math.comb(n - k + 1, 2))
    expected = (n - k + 1,) + (1,) * (k - 1)
    matches = best_value == bound and best_parts == expected
    return PartitionMaxRecord(
        n=n, k=k, bound=bound, max_value=best_value, maximizer=best_parts, matches=matches
    )


def factorization_residual(state: PureState, k: int, l: int) -> float:
    """Largest deviation of the (k, l) correlation block from the outer
    product of the two Bloch vectors, in the computational frame.

    Zero (within tolerance) for any state that is product across a cut
    separating k and l; strictly positive certifies that k and l do not sit
    in separate product factors.
    """
    _check_pair(state.n, k, l)
    bloch, blocks = marginals(state)
    return float(np.max(np.abs(blocks[k, l] - np.outer(bloch[k], bloch[l]))))


# ---------------------------------------------------------------------------
# full exclusion report


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of comparing one detection value against every partition bound
    and threshold family.

    ``depth_statement_m``/``depth_proof_parties`` carry the two readings of
    the bipartition-family conclusion (the threshold statement asserts
    "genuinely m-partite"; the ordering argument behind it yields at least
    m + 1 mutually entangled parties). The enumeration-based
    ``entangled_subset_guarantee`` is reported alongside and is never weaker.
    """

    n: int
    policy: str
    m_pb: float
    s_thresholds: dict[int, float]
    genuine_threshold: float | None
    depth_thresholds: dict[int, float]
    excluded_partitions: tuple[tuple[tuple[int, ...], float], ...]
    surviving_partitions: tuple[tuple[int, ...], ...]
    entangled_subset_guarantee: int
    genuine_multipartite: bool
    not_product_min_k: int | None
    depth_statement_m: int | None
    depth_proof_parties: int | None

    def to_json_dict(self) -> dict:
        """Serialization contract: exactly the schema fields, nothing more."""
        thresholds: dict = {f"s_{k}": v for k, v in sorted(self.s_thresholds.items())}
        thresholds["genuine"] = self.genuine_threshold
        thresholds["depth"] = {str(m): v for m, v in sorted(self.depth_thresholds.items())}
        return {
            "n": self.n,
            "policy": self.policy,
            "m_pb": self.m_pb,
            "thresholds": thresholds,
            "excluded_partitions": [[list(p), b] for p, b in self.excluded_partitions],
            "surviving_partitions": [list(p) for p in self.surviving_partitions],
            "entangled_subset_guarantee": self.entangled_subset_guarantee,
            "genuine_multipartite": self.genuine_multipartite,
        }


def exclusion_report(state: PureState, policy: ZeroPolicy | None = None) -> DetectionReport:
    """Compute m_pb and compare it against every partition of n.

    A nontrivial partition is excluded iff the value exceeds its bound by
    more than EPS_DET; the trivial partition (n) always survives. The
    entangled-subset guarantee is the smallest largest-part over surviving
    partitions.
    """
    policy = policy or ZeroPolicy.canonical()
    n = state.n
    if n < 2:
        raise ValueError("exclusion reports need at least 2 qubits")
    value = m_pb(state, policy)

    table = partition_table(n, value)
    excluded = [(parts, bound) for parts, bound, out in table if out]
    surviving = [parts for parts, _, out in table if not out]

    guarantee = min(parts[0] for parts in surviving)
    surviving_ks = {len(parts) for parts in surviving}
    not_product_min_k: int | None = None
    for k in range(n, 1, -1):
        if k in surviving_ks:
            break
        not_product_min_k = k

    s_thresholds, gt, depth_thresholds = _threshold_families(n)
    for k, s in s_thresholds.items():
        # the closed-form threshold must agree with the enumerated verdicts
        if _exceeds(value, s) != (k not in surviving_ks):
            raise RuntimeError(
                f"threshold s_{k} = {s!r} disagrees with the partition enumeration "
                f"for n={n}, value {value!r}"
            )

    triggered = [m for m, t in depth_thresholds.items() if _exceeds(value, t)]
    depth_statement_m = max(triggered) if triggered else None
    depth_proof_parties = depth_statement_m + 1 if depth_statement_m is not None else None

    return DetectionReport(
        n=n,
        policy=policy.describe(),
        m_pb=value,
        s_thresholds=s_thresholds,
        genuine_threshold=gt,
        depth_thresholds=depth_thresholds,
        excluded_partitions=tuple(excluded),
        surviving_partitions=tuple(surviving),
        entangled_subset_guarantee=guarantee,
        genuine_multipartite=2 not in surviving_ks,
        not_product_min_k=not_product_min_k,
        depth_statement_m=depth_statement_m,
        depth_proof_parties=depth_proof_parties,
    )
