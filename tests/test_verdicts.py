"""The verdict rule at the bounds, and verdicts under qubit relabelling.

Every verdict compares a value with a bound through ``detector._exceeds``
(value > bound + EPS_DET). A value on a bound never excludes it; a value
2e-9 above excludes it. States that sit exactly on a partition bound are
where rounding would decide the verdict, so they are pinned here too.
"""
import math
from functools import reduce

import numpy as np
import pytest

from entmon import (
    PureState,
    ZeroPolicy,
    enumerate_partitions,
    exclusion_report,
    make_dicke,
    make_ghz,
    make_random_haar,
    monogamy_stress,
    partition_bound,
    partition_table,
    tensor_product,
)
from entmon import detector, partitions
from entmon.detector import _exceeds, _threshold_families

ABOVE = 2e-9
WITHIN = 5e-10  # inside the margin: still not a verdict


@pytest.mark.parametrize("n", range(1, 9))
def test_verdict_rule_is_strict_at_the_margin(n):
    # the rule is value > bound + EPS_DET: a value at the bound plus the
    # margin is no verdict, the next float above it is
    eps = partitions.EPS_DET
    for parts in partitions.enumerate_partitions(n):
        b = partitions.partition_bound(parts)
        assert not partitions._exceeds(b + eps, b)
        assert partitions._exceeds(math.nextafter(b + eps, math.inf), b)


@pytest.mark.parametrize("n", range(1, 13))
def test_partition_on_its_bound_survives_and_just_above_is_excluded(n):
    for parts in enumerate_partitions(n):
        b = partition_bound(parts)
        on = {p: out for p, _, out in partition_table(n, b)}
        within = {p: out for p, _, out in partition_table(n, b + WITHIN)}
        above = {p: out for p, _, out in partition_table(n, b + ABOVE)}
        assert not on[parts] and not within[parts]
        assert above[parts] == (len(parts) > 1)


@pytest.mark.parametrize("n", range(3, 13))
def test_thresholds_on_the_value_are_not_exceeded_and_just_above_are(n):
    s, genuine, depth = _threshold_families(n)
    assert genuine == s[2]
    assert sorted(s) == list(range(2, n))
    assert sorted(depth) == (list(range(1, n // 2)) if n >= 5 else [])
    for t in [*s.values(), *depth.values()]:
        assert not _exceeds(t, t) and not _exceeds(t + WITHIN, t)
        assert _exceeds(t + ABOVE, t)
    # s_k is the largest bound over k-part partitions: at s_k one of them
    # survives, just above it none does
    for k, t in s.items():
        assert any(len(p) == k and not out for p, _, out in partition_table(n, t))
        assert all(out for p, _, out in partition_table(n, t + ABOVE) if len(p) == k)


def test_no_thresholds_below_three_qubits():
    assert _threshold_families(2) == ({}, None, {})


def product(states):
    return reduce(tensor_product, states)


@pytest.mark.parametrize("j", range(1, 11))
def test_bell_pair_products_sit_on_their_bound(j):
    rep = exclusion_report(product([make_ghz(2)] * j), ZeroPolicy.canonical())
    assert abs(rep.m_pb - 2 * j) <= 1e-12
    assert (2,) * j in rep.surviving_partitions


GHZ_PAIRS = [(k, m) for k in range(3, 7) for m in range(k, 13 - k)]


@pytest.mark.parametrize("k,m", GHZ_PAIRS)
def test_ghz_block_products_sit_on_their_bound(k, m):
    state = tensor_product(make_ghz(k), make_ghz(m))
    rep = exclusion_report(state, ZeroPolicy.maximize(samples=4, seed=0))
    assert abs(rep.m_pb - (math.comb(k, 2) + math.comb(m, 2))) <= 1e-12
    assert (m, k) in rep.surviving_partitions


def permuted(state: PureState, perm) -> PureState:
    """The state with its qubit perm[i] moved to position i."""
    psi = state.amplitudes.reshape((2,) * state.n).transpose(perm)
    return PureState(state.n, psi.reshape(-1))


VERDICT_FIELDS = (
    "excluded_partitions",
    "surviving_partitions",
    "entangled_subset_guarantee",
    "genuine_multipartite",
    "not_product_min_k",
    "depth_statement_m",
)
RELABELLED = {
    "haar-5": lambda: make_random_haar(5, 41),
    "haar-7": lambda: make_random_haar(7, 42),
    "dicke-7-3": lambda: make_dicke(7, 3),
    "ghz3-w4": lambda: tensor_product(make_ghz(3), make_dicke(4, 1)),
}


@pytest.mark.parametrize("policy", [ZeroPolicy.canonical(), ZeroPolicy.fixed_axis([1, 0, 0])],
                         ids=["canonical", "axis=1,0,0"])
@pytest.mark.parametrize("name", sorted(RELABELLED))
def test_verdicts_do_not_depend_on_qubit_labels(name, policy):
    state = RELABELLED[name]()
    ref = exclusion_report(state, policy)
    rng = np.random.default_rng(7)
    for _ in range(5):
        rep = exclusion_report(permuted(state, rng.permutation(state.n)), policy)
        assert {f: getattr(rep, f) for f in VERDICT_FIELDS} == {
            f: getattr(ref, f) for f in VERDICT_FIELDS
        }
        assert abs(rep.m_pb - ref.m_pb) <= 1e-12 * abs(ref.m_pb)


def test_stress_counts_every_sum_the_rule_finds_above_its_bound(monkeypatch):
    # with every bound at -1 each sum is a violation: at n = 3 that is three
    # pair values, three two-term sums, one triple sum and the total
    monkeypatch.setattr(detector, "_monogamy_bounds", lambda n: dict.fromkeys(
        ("pair", "two_term", "triple", "total"), -1.0))
    assert monogamy_stress(3, trials=4, seed=0).violations == 4 * 8
