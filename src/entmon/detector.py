"""Pairwise in-plane correlation quantities, monogamy bounds, and the
exclusion report.

The central quantity for a qubit pair (k, l) is the sum of the four squared
correlation-block entries with both indices in the plane orthogonal to each
qubit's z axis: ||P_k T_kl P_l||_F^2 with P = I - a a^T for the unit axis a.
Summed over all pairs with preferred axes it becomes the detection value
M^(pb). ``exclusion_report`` compares that value with every partition bound
and threshold family of ``entmon.partitions``. Every verdict, on a
partition, a threshold or a monogamy sum, is that module's one comparison
``_exceeds``: the value beats the bound by more than EPS_DET. The partition
names are imported back here, so ``entmon.detector.<name>`` still reaches
them.

All functions are pure over immutable inputs; stress runs derive per-trial
seeds from the master seed (seed + trial index) so results are reproducible
regardless of scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .frames import (
    MAXIMIZE,
    ZeroPolicy,
    _random_axes,
    _unit_axes,
    _zero_bloch,
    preferred_axes,
)
from .partitions import (  # noqa: F401  (re-exported as entmon.detector.<name>)
    EPS_DET,
    PartitionMaxRecord,
    _as_partition,
    _exceeds,
    _threshold_families,
    depth_threshold,
    enumerate_partitions,
    genuine_threshold,
    min_entangled_block,
    partition_bound,
    partition_table,
    s_threshold,
    verify_partition_term_max,
)
from .statevec import PureState, make_random_haar
from .tensor import marginals


def _margin_text() -> str:
    """-EPS_DET as the stress report prints it: ``-1e-9``, without the
    exponent's leading zero that ``format`` writes (``-1e-09``)."""
    return format(-EPS_DET, "g").replace("e-0", "e-")


# restarts for the maximize zero-policy search (z-axis start + this many
# random starts drawn from the candidate axes)
_MAXIMIZE_RESTARTS = 4

_I3 = np.eye(3)
# +x, -x, +y, -y, +z, -z: the first candidates of every searched qubit
_SIGNED_AXES = np.kron(_I3, [[1.0], [-1.0]])


def _projectors(axes: np.ndarray) -> np.ndarray:
    """I - a a^T for every unit axis a, shape (n, 3, 3): the projector onto
    its in-plane directions."""
    return _I3 - axes[:, :, None] * axes[:, None, :]


def _inplane_sq(block: np.ndarray, P_k: np.ndarray, P_l: np.ndarray) -> float:
    B = P_k @ block @ P_l
    return float(np.vdot(B, B))


def _pair_values(P: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """||P_k T_kl P_l||^2 of every pair, shape (n, n), from the projectors
    (n, 3, 3) and ``marginals``' blocks (n, n, 3, 3). The k < l half is
    mirrored, so the array is exactly symmetric; its diagonal is zero, as
    the diagonal blocks are."""
    B = P[:, None] @ blocks @ P[None]
    values = (B * B).sum(axis=(2, 3))
    k, l = _sum_indices(len(P))[0]
    values[l, k] = values[k, l]
    return values


@lru_cache(maxsize=None)
def _sum_indices(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Index tables into n qubits' (n, n) pair values, read-only and in
    ``combinations`` order: the pairs k < l, every two-term sum over a shared
    qubit q as (q, a, b) with a < b, and the triples k < l < m."""
    # from NumPy masks: tables built from lists of Python tuples raised the
    # peak RSS of a run of haar-20 verdicts by about 2 MB
    q, a, b = np.ogrid[:n, :n, :n]
    tables = (np.triu_indices(n, 1), np.nonzero((a < b) & (q != a) & (q != b)),
              np.nonzero((q < a) & (a < b)))
    for column in (c for table in tables for c in table):
        column.setflags(write=False)
    return tables


def _pair_total(values: np.ndarray) -> float:
    """The sum of the pair values over k < l."""
    return float(values[_sum_indices(len(values))[0]].sum())


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
    return _pair_total(_pair_values(P, blocks))


def m_pb(state: PureState, policy: ZeroPolicy | None = None) -> float:
    """Detection value: m_total with every qubit's preferred axis.

    For the maximize policy, qubits with vanishing Bloch vector get their z
    axis chosen by seeded random-restart coordinate ascent over the policy's
    candidate axes; the result is a lower bound on the supremum and every
    candidate is a valid preferred basis, so detection stays sound.
    """
    policy = policy or ZeroPolicy.canonical()
    blochs, blocks = marginals(state)
    P = _projectors(preferred_axes(blochs, policy))
    zero = np.flatnonzero(_zero_bloch(blochs)).tolist()
    if policy.mode == MAXIMIZE and zero:
        return _maximize_zero_axes(blocks, P, zero, policy)
    return _pair_total(_pair_values(P, blocks))


def _maximize_zero_axes(blocks, base_projectors, zero, policy: ZeroPolicy) -> float:
    rng = np.random.default_rng(policy.seed)
    candidates: dict[int, np.ndarray] = {}
    for q in zero:  # fixed qubit order keeps the draw sequence deterministic
        axes = rng.standard_normal((policy.samples, 3))
        norms = np.linalg.norm(axes, axis=1)
        degenerate = norms < 1e-12
        axes[degenerate] = (0.0, 0.0, 1.0)
        norms[degenerate] = 1.0
        axes /= norms[:, None]
        candidates[q] = _projectors(np.vstack([_SIGNED_AXES, axes]))

    # a candidate is scored pair by pair over the searched qubit's pairs
    pairs = list(combinations(range(len(blocks)), 2))
    pairs_of = {q: [(k, l, blocks[k, l]) for k, l in pairs if q in (k, l)] for q in zero}

    def local_sum(P, q) -> float:
        return sum(_inplane_sq(block, P[k], P[l]) for k, l, block in pairs_of[q])

    starts = [list(base_projectors)]
    for _ in range(_MAXIMIZE_RESTARTS):
        starts.append(list(base_projectors))
        for q in zero:
            starts[-1][q] = candidates[q][rng.integers(len(candidates[q]))]

    best = -math.inf
    for P in starts:
        while True:
            gain = 0.0
            for q in zero:
                current = best_local = local_sum(P, q)
                best_candidate = P[q]
                for C in candidates[q]:
                    P[q] = C
                    s = local_sum(P, q)
                    if s > best_local:
                        best_local, best_candidate = s, C
                P[q] = best_candidate
                gain += best_local - current
            if gain < 1e-9:
                break
        best = max(best, _pair_total(_pair_values(np.array(P), blocks)))
    return best


@dataclass(frozen=True)
class MonogamyReport:
    """The pair values of one state and one set of axes as a read-only,
    symmetric (n, n) array with a zero diagonal, the worst slack against each
    monogamy bound (slack < 0 means a violation), and the number of sums that
    exceed their bound by the verdict rule."""

    n: int
    pair_values: np.ndarray
    total: float
    total_bound: float
    pair_slack: float
    two_term_slack: float
    triple_slack: float
    total_slack: float
    violations: int

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
    values = _pair_values(P, blocks)
    values.setflags(write=False)
    pairs, (q, a, b), (k, l, m) = _sum_indices(n)
    total = values[pairs].sum(keepdims=True)
    sums = (values[pairs], values[q, a] + values[q, b], values[k, l] + values[l, m] + values[k, m],
            total)
    bounds = _monogamy_bounds(n)
    # bound - max(s) is min(bound - s), as a subtraction from a fixed bound
    # rounds monotonically; the empty families of n = 2 get slack inf
    slacks = [b - float(s.max(initial=-math.inf)) for b, s in zip(bounds.values(), sums)]
    violations = sum(int(np.count_nonzero(_exceeds(s, b))) for b, s in zip(bounds.values(), sums))
    return MonogamyReport(n, values, float(total[0]), bounds["total"], *slacks, violations)


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
    mins = [math.inf] * 4
    max_pair = -math.inf
    violations = 0
    for i in range(trials):
        st = make_random_haar(n, seed + i)
        frame_rng = np.random.default_rng([seed, i])
        rep = monogamy_check(st, _random_axes(frame_rng, n))
        slacks = (rep.pair_slack, rep.two_term_slack, rep.triple_slack, rep.total_slack)
        mins = [min(a, b) for a, b in zip(mins, slacks)]
        max_pair = max(max_pair, float(rep.pair_values.max()))
        violations += rep.violations
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
