import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmon import (
    ZeroPolicy,
    apply_local_unitary,
    depth_threshold,
    enumerate_partitions,
    exclusion_report,
    factorization_residual,
    genuine_threshold,
    m_kl,
    m_pb,
    m_total,
    make_dicke,
    make_ghz,
    make_plus_product,
    make_random_haar,
    min_entangled_block,
    monogamy_check,
    monogamy_stress,
    partition_bound,
    preferred_axes,
    random_rotation,
    s_threshold,
    tensor_product,
    verify_partition_term_max,
)
from entmon import detector
from entmon.detector import EPS_DET
from entmon.tensor import marginals
from lu_oracles import su2_from_rotation, z_axes


def preferred(state):
    return preferred_axes(marginals(state)[0])


def haar_with_bloch(n: int, seed: int, min_norm: float = 1e-6):
    """Haar state whose single-qubit Bloch norms all exceed min_norm."""
    from entmon import bloch_vector, reduced_density_single

    while True:
        state = make_random_haar(n, seed)
        norms = [
            np.linalg.norm(bloch_vector(reduced_density_single(state, k))) for k in range(n)
        ]
        if min(norms) > min_norm:
            return state
        seed += 7919


# ---------------------------------------------------------------------------
# m_kl / m_total / m_pb


def test_m_kl_bell_saturates():
    assert m_kl(make_ghz(2), z_axes(2), 0, 1) == pytest.approx(2.0, abs=1e-12)


def test_m_kl_plus_product_preferred_is_zero():
    state = make_plus_product(2)
    assert m_kl(state, preferred(state), 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_m_kl_ghz_identity_is_zero():
    assert m_kl(make_ghz(3), z_axes(3), 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_m_kl_validation():
    g = make_ghz(3)
    with pytest.raises(ValueError):
        m_kl(g, z_axes(3), 1, 1)
    with pytest.raises(ValueError):
        m_kl(g, z_axes(2), 0, 1)


BAD_AXES = {
    "too few rows": z_axes(2),
    "rotation matrices": [np.eye(3)] * 3,
    "two components": np.zeros((3, 2)),
    "flat": [0.0, 0.0, 1.0],
    "nan": [[math.nan, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
    "inf": [[0.0, 0.0, math.inf], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
    "zero": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
    "norm 2": [[0.0, 0.0, 2.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
    "norm off by 1e-9": [[0.0, 0.0, 1.0 + 1e-9], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
}


@pytest.mark.parametrize("bad", list(BAD_AXES.values()), ids=list(BAD_AXES))
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda s, a: m_kl(s, a, 0, 1),
        m_total,
        monogamy_check,
    ],
    ids=["m_kl", "m_total", "monogamy_check"],
)
def test_axes_validation(evaluate, bad):
    state = make_dicke(3, 1)
    with pytest.raises(ValueError):
        evaluate(state, bad)
    # a norm within ROTATION_TOL of 1 is accepted
    evaluate(state, [[0.0, 0.0, 1.0 + 1e-11], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def test_m_total_plus_product():
    for n in range(3, 7):
        state = make_plus_product(n)
        assert m_total(state, z_axes(n)) == pytest.approx(math.comb(n, 2), abs=1e-9)
        assert m_total(state, preferred(state)) == pytest.approx(0.0, abs=1e-9)


def test_m_total_ghz_identity():
    assert m_total(make_ghz(3), z_axes(3)) == pytest.approx(0.0, abs=1e-12)


def test_m_pb_dicke_values():
    assert m_pb(make_dicke(3, 1)) == pytest.approx(8 / 3, abs=1e-9)
    assert m_pb(make_dicke(5, 2)) == pytest.approx(7.2, abs=1e-9)
    assert m_pb(make_dicke(7, 3)) == pytest.approx(96 / 7, abs=1e-9)


def test_m_pb_ghz_policies():
    g = make_ghz(3)
    assert m_pb(g, ZeroPolicy.canonical()) == pytest.approx(0.0, abs=1e-12)
    best = m_pb(g, ZeroPolicy.maximize(samples=64, seed=3))
    assert best >= 3 - 1e-6
    assert best <= 3 + EPS_DET


def rotated_ghz(n: int, seed: int):
    rng = np.random.default_rng(seed)
    state = make_ghz(n)
    for q in range(n):
        state = apply_local_unitary(state, q, su2_from_rotation(random_rotation(rng)))
    return state


# maximize values (samples 16, samples 64; seed 0) computed with the search
# over full frame rotations that the axis search replaced
MAXIMIZE_GOLDEN = [
    ("ghz-3", lambda: make_ghz(3), 2.9999999999999987, 2.9999999999999987),
    ("ghz-4", lambda: make_ghz(4), 5.999999999999998, 5.999999999999998),
    ("ghz-5", lambda: make_ghz(5), 9.999999999999998, 9.999999999999998),
    ("ghz-6", lambda: make_ghz(6), 14.999999999999998, 14.999999999999998),
    ("rotated-ghz-4", lambda: rotated_ghz(4, 904), 5.992969193693665, 5.99772645874565),
    ("rotated-ghz-5", lambda: rotated_ghz(5, 905), 9.928256229552156, 9.991961494794616),
    ("ghz3-w3", lambda: tensor_product(make_ghz(3), make_dicke(3, 1)), 5.666666666666666,
     5.666666666666666),
]


@pytest.mark.parametrize(
    "make, at_16, at_64",
    [row[1:] for row in MAXIMIZE_GOLDEN],
    ids=[row[0] for row in MAXIMIZE_GOLDEN],
)
def test_m_pb_maximize_golden_values(make, at_16, at_64):
    state = make()
    assert m_pb(state, ZeroPolicy.maximize(16, seed=0)) == pytest.approx(at_16, rel=1e-12)
    assert m_pb(state, ZeroPolicy.maximize(64, seed=0)) == pytest.approx(at_64, rel=1e-12)


def test_m_pb_maximize_without_zero_bloch_matches_canonical():
    state = haar_with_bloch(3, 51)
    assert m_pb(state, ZeroPolicy.maximize(seed=1)) == pytest.approx(
        m_pb(state), abs=1e-12
    )


def test_m_pb_searches_only_the_qubits_preferred_axes_call_zero(monkeypatch):
    # this Bloch norm reads 1e-09 as a single vector but 1.0000000000000003e-09
    # row-wise: one rule must decide both whether the qubit keeps its Bloch
    # direction and whether the search replaces its axis
    bloch = np.array([[6.124409730195112e-10, 4.05565885932061e-10, 6.785516684343626e-10],
                      [0.0, 0.0, 1.0]])
    assert not np.allclose(preferred_axes(bloch)[0], (0.0, 0.0, 1.0))
    blocks = np.zeros((2, 2, 3, 3))
    blocks[0, 1] = blocks[1, 0] = np.eye(3)
    monkeypatch.setattr(detector, "marginals", lambda state: (bloch, blocks))
    searched = []
    search = detector._maximize_zero_axes

    def spy(blocks, P, zero, policy):
        searched.append(zero)
        return search(blocks, P, zero, policy)

    monkeypatch.setattr(detector, "_maximize_zero_axes", spy)
    state = make_ghz(2)
    assert m_pb(state, ZeroPolicy.maximize(16)) == m_pb(state)
    assert searched == []


def test_m_pb_fixed_axis_on_ghz():
    # choosing x as every zero-Bloch qubit's z-axis turns each pair's zz
    # correlation fully in-plane: every pair contributes 1
    g = make_ghz(3)
    assert m_pb(g, ZeroPolicy.fixed_axis([1, 0, 0])) == pytest.approx(3.0, abs=1e-9)


def test_m_kl_range_on_random_states():
    rng = np.random.default_rng(8)
    for seed in range(10):
        state = make_random_haar(4, 800 + seed)
        axes = [random_rotation(rng)[2] for _ in range(4)]
        for k, l in itertools.combinations(range(4), 2):
            v = m_kl(state, axes, k, l)
            assert -1e-12 <= v <= 2 + EPS_DET


def test_m_pb_additivity_on_products():
    for seed in range(10):
        a = haar_with_bloch(2, 2000 + seed)
        b = haar_with_bloch(3, 3000 + seed)
        combined = m_pb(tensor_product(a, b))
        assert abs(combined - m_pb(a) - m_pb(b)) <= 1e-9


def test_m_pb_local_unitary_invariance():
    rng = np.random.default_rng(77)
    for seed in range(5):
        state = haar_with_bloch(3, 500 + seed)
        rotated = state
        for k in range(3):
            rotated = apply_local_unitary(rotated, k, su2_from_rotation(random_rotation(rng)))
        assert m_pb(rotated) == pytest.approx(m_pb(state), abs=1e-9)


def test_canonical_is_not_local_unitary_invariant_for_zero_bloch_qubits():
    # the README example: a quarter turn about y takes qubit 0's x axis to z
    x_to_z = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    bell = make_ghz(2)
    turned = apply_local_unitary(bell, 0, su2_from_rotation(x_to_z))
    assert m_pb(bell) == pytest.approx(2.0, abs=1e-12)
    assert m_pb(turned) == pytest.approx(1.0, abs=1e-12)
    assert m_pb(turned, ZeroPolicy.maximize()) == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# monogamy


def test_monogamy_bell():
    rep = monogamy_check(make_ghz(2), z_axes(2))
    assert rep.pair_values[(0, 1)] == pytest.approx(2.0, abs=1e-12)
    assert rep.pair_slack == pytest.approx(0.0, abs=1e-12)
    assert rep.total_bound == 2.0
    assert math.isinf(rep.two_term_slack) and math.isinf(rep.triple_slack)


def test_monogamy_w_identity_frames():
    rep = monogamy_check(make_dicke(3, 1), z_axes(3))
    for k, l in itertools.combinations(range(3), 2):
        assert rep.pair_values[(k, l)] == pytest.approx(8 / 9, abs=1e-12)
    # the one triple sum is 3 * 8/9 = 8/3
    assert rep.triple_slack == pytest.approx(3 - 8 / 3, abs=1e-12)


def test_monogamy_single_qubit_product_all_zero():
    state = make_plus_product(4)
    rep = monogamy_check(state, preferred(state))
    assert rep.total == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.abs(rep.pair_values) <= 1e-12)


def test_monogamy_total_is_sum_of_pairs():
    rng = np.random.default_rng(13)
    state = make_random_haar(4, 99)
    axes = [random_rotation(rng)[2] for _ in range(4)]
    rep = monogamy_check(state, axes)
    pairs = list(itertools.combinations(range(4), 2))
    assert rep.total == pytest.approx(sum(rep.pair_values[p] for p in pairs), abs=1e-10)
    assert np.all(rep.pair_values >= 0)


def random_axes(rng, n: int) -> np.ndarray:
    axes = rng.standard_normal((n, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


@pytest.mark.parametrize("n", range(2, 13))
def test_pair_values_match_per_pair_products(n):
    rng = np.random.default_rng(n)
    for state in (make_random_haar(n, 40 + n), make_ghz(n), make_dicke(n, n // 2)):
        P = detector._projectors(random_axes(rng, n))
        _, blocks = marginals(state)
        values = detector._pair_values(P, blocks)
        for k, l in itertools.combinations(range(n), 2):
            B = P[k] @ blocks[k, l] @ P[l]
            want = float(np.sum(B * B))
            assert abs(values[k, l] - want) <= 1e-15 * max(want, 1.0), (k, l)


def test_monogamy_report_pair_values_are_a_read_only_symmetric_table():
    n = 6
    rep = monogamy_check(make_random_haar(n, 5), random_axes(np.random.default_rng(5), n))
    values = rep.pair_values
    assert values.shape == (n, n)
    assert np.array_equal(values, values.T)
    assert np.all(np.diag(values) == 0.0)
    with pytest.raises(ValueError):
        values[0, 1] = 0.0


def dict_monogamy(state, axes, bounds):
    """Slacks and violation count of monogamy_check from dicts of per-pair
    values, every two-term sum over a shared qubit and every triple sum."""
    n = state.n
    P = detector._projectors(np.asarray(axes, dtype=float))
    _, blocks = marginals(state)
    pairs = list(itertools.combinations(range(n), 2))
    values = {(k, l): detector._inplane_sq(blocks[k, l], P[k], P[l]) for k, l in pairs}
    two_term = {
        (p1, p2): values[p1] + values[p2]
        for q in range(n)
        for p1, p2 in itertools.combinations([p for p in pairs if q in p], 2)
    }
    triple = {
        (k, l, m): values[k, l] + values[l, m] + values[k, m]
        for k, l, m in itertools.combinations(range(n), 3)
    }
    families = (values.values(), two_term.values(), triple.values(), [sum(values.values())])
    slacks = [min((b - v for v in vs), default=math.inf) for b, vs in zip(bounds, families)]
    violations = sum(v > b + EPS_DET for b, vs in zip(bounds, families) for v in vs)
    return slacks, violations


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("tight", [False, True], ids=["bounds", "tight-bounds"])
def test_monogamy_check_matches_dict_oracle(n, tight, monkeypatch):
    if tight:
        # bounds inside the range of the sums, so every family counts some
        # sums as violations and passes others
        monkeypatch.setattr(detector, "_monogamy_bounds", lambda n: {
            "pair": 0.3, "two_term": 0.6, "triple": 0.9, "total": 0.15 * math.comb(n, 2)})
    bounds = list(detector._monogamy_bounds(n).values())
    rng = np.random.default_rng(100 + n)
    for seed in range(4):
        state, axes = make_random_haar(n, seed), random_axes(rng, n)
        rep = monogamy_check(state, axes)
        slacks, violations = dict_monogamy(state, axes, bounds)
        got = (rep.pair_slack, rep.two_term_slack, rep.triple_slack, rep.total_slack)
        for a, b in zip(got, slacks):
            assert a == b if math.isinf(b) else abs(a - b) <= 1e-12
        assert rep.violations == violations


def test_sum_indices_are_cached_and_read_only():
    pairs, shared, triples = detector._sum_indices(5)
    assert detector._sum_indices(5) is detector._sum_indices(5)
    assert list(zip(*pairs)) == list(itertools.combinations(range(5), 2))
    assert list(zip(*triples)) == list(itertools.combinations(range(5), 3))
    assert len(shared[0]) == 5 * math.comb(4, 2)
    assert not any(column.flags.writeable for column in (*pairs, *shared, *triples))


def test_monogamy_stress_small():
    for n in (2, 3, 4):
        summary = monogamy_stress(n, trials=200, seed=11)
        assert summary.violations == 0
        assert summary.min_slack >= -1e-9
        assert summary.max_pair_value <= 2 + 1e-9


def test_monogamy_stress_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        monogamy_stress(3, trials=5, seed=-3)


def test_monogamy_stress_deterministic():
    a = monogamy_stress(3, trials=50, seed=5)
    b = monogamy_stress(3, trials=50, seed=5)
    assert a == b


# ---------------------------------------------------------------------------
# partitions and thresholds


def test_partition_bound_examples():
    assert partition_bound((2, 2)) == 4.0
    assert partition_bound((1, 1, 1, 1)) == 0.0
    assert partition_bound((3, 4)) == 9.0
    assert partition_bound((4, 3)) == 9.0


def test_partition_bound_validation():
    with pytest.raises(ValueError):
        partition_bound((2, 0))
    with pytest.raises(ValueError):
        partition_bound(())


def test_enumerate_partitions_examples():
    assert enumerate_partitions(4, 2) == [(3, 1), (2, 2)]
    assert enumerate_partitions(4, 3) == [(2, 1, 1)]
    assert len(enumerate_partitions(5)) == 7
    assert enumerate_partitions(5)[0] == (5,)
    assert enumerate_partitions(5)[-1] == (1, 1, 1, 1, 1)


def test_enumerate_partitions_validation():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(4, 5)
    with pytest.raises(ValueError):
        enumerate_partitions(4, 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 14))
def test_enumerate_partitions_invariants(n):
    parts = enumerate_partitions(n)
    assert len(parts) == len(set(parts))
    for p in parts:
        assert sum(p) == n
        assert all(a >= b for a, b in zip(p, p[1:]))
        assert all(r >= 1 for r in p)
    # reverse-lexicographic order
    assert parts == sorted(parts, reverse=True)
    # k-filtered lists partition the full list
    assert sum(len(enumerate_partitions(n, k)) for k in range(1, n + 1)) == len(parts)


def test_s_threshold_examples():
    assert s_threshold(7, 2) == 15.0
    assert s_threshold(5, 4) == 2.0
    assert s_threshold(5, 3) == 4.0
    with pytest.raises(ValueError):
        s_threshold(5, 5)
    with pytest.raises(ValueError):
        s_threshold(5, 1)
    with pytest.raises(ValueError):
        s_threshold(2, 2)


def test_s_threshold_is_bruteforce_partition_max():
    for n in range(3, 13):
        for k in range(2, n):
            brute = max(partition_bound(p) for p in enumerate_partitions(n, k))
            assert s_threshold(n, k) == brute


def test_genuine_threshold_examples():
    assert genuine_threshold(3) == 2.0
    assert genuine_threshold(4) == 4.0
    assert genuine_threshold(5) == 6.0
    with pytest.raises(ValueError):
        genuine_threshold(2)


def test_depth_threshold_examples():
    assert depth_threshold(7, 2) == 12.0
    assert depth_threshold(5, 1) == 6.0
    assert depth_threshold(9, 3) == 18.0
    with pytest.raises(ValueError):
        depth_threshold(7, 3)
    with pytest.raises(ValueError):
        depth_threshold(4, 1)


def test_depth_threshold_strictly_decreasing():
    for n in range(5, 13):
        values = [depth_threshold(n, m) for m in range(1, n // 2)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_min_entangled_block():
    assert min_entangled_block(7, 3) == 4
    assert min_entangled_block(6, 2) == 6
    assert min_entangled_block(6, 4) == 2
    with pytest.raises(ValueError):
        min_entangled_block(5, 1)


def test_verify_partition_term_max():
    rec = verify_partition_term_max(7, 3)
    assert rec.max_value == 10.0 and rec.maximizer == (5, 1, 1) and rec.matches
    rec = verify_partition_term_max(6, 2)
    assert rec.max_value == 10.0 and rec.maximizer == (5, 1) and rec.matches
    rec = verify_partition_term_max(8, 8)
    assert rec.max_value == 0.0 and rec.maximizer == (1,) * 8 and rec.matches
    with pytest.raises(ValueError):
        verify_partition_term_max(7, 8)


def test_verify_partition_term_max_everywhere_small():
    for n in range(3, 13):
        for k in range(2, n + 1):
            assert verify_partition_term_max(n, k).matches


# ---------------------------------------------------------------------------
# factorization residual


def test_factorization_residual_examples():
    assert factorization_residual(make_plus_product(2), 0, 1) == pytest.approx(0.0, abs=1e-10)
    assert factorization_residual(make_ghz(2), 0, 1) == pytest.approx(1.0, abs=1e-10)
    w = make_dicke(3, 1)
    for k, l in itertools.combinations(range(3), 2):
        assert factorization_residual(w, k, l) == pytest.approx(2 / 3, abs=1e-10)
    with pytest.raises(ValueError):
        factorization_residual(w, 2, 1)


def test_factorization_residual_zero_across_cut():
    for seed in range(5):
        state = tensor_product(make_random_haar(2, seed), make_random_haar(2, 50 + seed))
        for k in range(2):
            for l in range(2, 4):
                assert factorization_residual(state, k, l) < 1e-10


# ---------------------------------------------------------------------------
# exclusion reports


def test_exclusion_report_d52():
    rep = exclusion_report(make_dicke(5, 2))
    assert rep.m_pb == pytest.approx(7.2, abs=1e-9)
    assert rep.genuine_multipartite is True
    assert rep.surviving_partitions == ((5,),)
    assert len(rep.excluded_partitions) == 6
    assert rep.entangled_subset_guarantee == 5
    assert rep.not_product_min_k == 2


def test_exclusion_report_d73():
    rep = exclusion_report(make_dicke(7, 3))
    assert rep.m_pb == pytest.approx(96 / 7, abs=1e-9)
    assert rep.surviving_partitions == ((7,), (6, 1))
    excluded = {p for p, _ in rep.excluded_partitions}
    assert excluded == set(enumerate_partitions(7)) - {(7,), (6, 1)}
    assert rep.entangled_subset_guarantee == 6
    assert rep.genuine_multipartite is False
    assert rep.not_product_min_k == 3
    assert rep.depth_statement_m == 2
    assert rep.depth_proof_parties == 3


def test_exclusion_report_plus_product():
    rep = exclusion_report(make_plus_product(4))
    assert rep.m_pb == pytest.approx(0.0, abs=1e-12)
    assert rep.excluded_partitions == ()
    assert rep.genuine_multipartite is False
    assert rep.not_product_min_k is None
    assert rep.entangled_subset_guarantee == 1


def test_exclusion_report_ghz_maximize_flags_genuine():
    rep = exclusion_report(make_ghz(3), ZeroPolicy.maximize(samples=64, seed=0))
    assert rep.m_pb >= 3 - 1e-6
    assert rep.genuine_multipartite is True


def test_exclusion_report_bell():
    rep = exclusion_report(make_ghz(2))
    assert rep.m_pb == pytest.approx(2.0, abs=1e-9)
    assert rep.s_thresholds == {} and rep.genuine_threshold is None
    assert rep.depth_thresholds == {}
    assert rep.genuine_multipartite is True
    assert rep.surviving_partitions == ((2,),)
    assert rep.entangled_subset_guarantee == 2


def test_exclusion_report_trivial_partition_never_excluded():
    for state in (make_dicke(5, 2), make_ghz(4), make_plus_product(3)):
        rep = exclusion_report(state)
        assert (state.n,) in rep.surviving_partitions
        assert all(p != (state.n,) for p, _ in rep.excluded_partitions)


def test_exclusion_report_guarantee_consistent_with_survivors():
    for seed in range(3):
        rep = exclusion_report(make_random_haar(5, 900 + seed))
        assert rep.entangled_subset_guarantee == min(p[0] for p in rep.surviving_partitions)


def test_exclusion_report_monotone_conclusions():
    # if every k-part partition is excluded the same holds for all larger k
    for state in (make_dicke(7, 3), make_dicke(6, 2), make_random_haar(6, 42)):
        rep = exclusion_report(state)
        surviving_ks = {len(p) for p in rep.surviving_partitions}
        if rep.not_product_min_k is not None:
            for k in range(rep.not_product_min_k, state.n + 1):
                assert k not in surviving_ks


def test_exclusion_report_json_schema():
    doc = exclusion_report(make_dicke(5, 2)).to_json_dict()
    assert set(doc) == {
        "n",
        "policy",
        "m_pb",
        "thresholds",
        "excluded_partitions",
        "surviving_partitions",
        "entangled_subset_guarantee",
        "genuine_multipartite",
    }
    assert set(doc["thresholds"]) == {"s_2", "s_3", "s_4", "genuine", "depth"}
    assert doc["thresholds"]["depth"] == {"1": 6.0}


def test_soundness_products_never_excluded_at_true_partition():
    # smaller version of the acceptance sweep
    rng = np.random.default_rng(314)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        parts = enumerate_partitions(n)
        true_partition = parts[int(rng.integers(len(parts)))]
        state = None
        for r in true_partition:
            factor = make_random_haar(r, int(rng.integers(2**31)))
            state = factor if state is None else tensor_product(state, factor)
        rep = exclusion_report(state)
        assert true_partition not in {p for p, _ in rep.excluded_partitions}


def test_consistency_checks_survive_python_O():
    # the checks must raise even when assert statements are compiled out
    script = """
import entmon.detector as detector
import entmon.families as families
from entmon import make_dicke

detector.s_threshold = lambda n, k: -1.0
try:
    detector.exclusion_report(make_dicke(5, 1))
except RuntimeError as exc:
    print("exclusion_report:", exc)
families.dicke_m_pb = lambda n, e: 0.0
try:
    families.dicke_max_m_pb(5)
except RuntimeError as exc:
    print("dicke_max_m_pb:", exc)
"""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert "exclusion_report: threshold s_2" in out.stdout
    assert "dicke_max_m_pb: closed-form maximum" in out.stdout
