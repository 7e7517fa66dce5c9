"""Partitions, their product-state bounds and the threshold families.

A pure state that factors as a product over a partition (r_1, ..., r_k) of
its n qubits can reach a detection value of at most sum C(r_m, 2) plus one
for every part of size exactly 2. Exceeding that bound by more than EPS_DET
excludes the partition; ``_exceeds`` is that one verdict rule, and every
partition, threshold and monogamy verdict in entmon goes through it. The
threshold families s_k, the genuine-multipartite threshold and the depth
thresholds are closed forms of the same bounds.

Everything here is integer combinatorics in pure Python: this module
imports no NumPy, so ``entmon partitions`` runs without loading it.
"""
from __future__ import annotations

import math
from typing import Iterator, NamedTuple

# strict-inequality margin for every exclusion verdict: the criteria require
# ">", and the margin keeps rounding from manufacturing entanglement claims
EPS_DET = 1e-9


def _exceeds(value: float, bound: float) -> bool:
    """The one verdict rule: ``value`` beats ``bound`` by more than EPS_DET.

    Every partition, threshold and monogamy verdict goes through it.
    """
    return value > bound + EPS_DET


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


class PartitionMaxRecord(NamedTuple):
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
