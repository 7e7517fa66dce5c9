"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The random-ensemble criteria use fixed seeds so the suite is reproducible.
"""
import itertools
import math
import time

import numpy as np

from entmon import (
    ZeroPolicy,
    bloch_vector,
    correlation_component,
    dicke_claimed_depth,
    dicke_m_pb,
    enumerate_partitions,
    exclusion_report,
    m_pb,
    m_total,
    make_dicke,
    make_ghz,
    make_plus_product,
    make_random_haar,
    monogamy_stress,
    pair_block,
    partition_bound,
    reduced_density_pair,
    reduced_density_single,
    s_threshold,
    tensor_product,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _haar_with_bloch(n: int, seed: int, min_norm: float = 1e-6):
    while True:
        state = make_random_haar(n, seed)
        norms = [
            np.linalg.norm(bloch_vector(reduced_density_single(state, k))) for k in range(n)
        ]
        if min(norms) > min_norm:
            return state
        seed += 104729


def test_criterion_1_dicke_closed_form_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 5, 7, 9, 11):
        for e in range(n + 1):
            numeric = m_pb(make_dicke(n, e), ZeroPolicy.canonical())
            worst = max(worst, abs(numeric - dicke_m_pb(n, e)))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "excitation-family closed form reproduced for odd n in 3..11",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_headline_detection_claims():
    rep3 = exclusion_report(make_dicke(3, 1))
    rep5 = exclusion_report(make_dicke(5, 2))
    ok = (
        abs(rep3.m_pb - 8 / 3) <= 1e-9
        and rep3.genuine_multipartite is True
        and abs(rep5.m_pb - 7.2) <= 1e-9
        and rep5.genuine_multipartite is True
    )
    _verdict(
        2,
        "3-qubit and 5-qubit excitation states flagged genuinely multipartite",
        ok,
        f"values {rep3.m_pb:.12g}, {rep5.m_pb:.12g}",
    )


def test_criterion_3_tightness_pair():
    worst_total, worst_pb = 0.0, 0.0
    for n in range(3, 9):
        state = make_plus_product(n)
        z_axes = np.tile([0.0, 0.0, 1.0], (n, 1))
        worst_total = max(worst_total, abs(m_total(state, z_axes) - math.comb(n, 2)))
        worst_pb = max(worst_pb, abs(m_pb(state)))
    _verdict(
        3,
        "all-plus product saturates the global bound and vanishes in preferred frames",
        worst_total <= 1e-9 and worst_pb <= 1e-9,
        f"diffs {worst_total:.2e}, {worst_pb:.2e}",
    )


def test_criterion_4_monogamy_stress():
    start = time.perf_counter()
    min_slack = math.inf
    violations = 0
    for n in (3, 4, 5, 6):
        summary = monogamy_stress(n, trials=10_000, seed=20_000 + n)
        min_slack = min(min_slack, summary.min_slack)
        violations += summary.violations
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        "pair/two-term/triple/global bounds hold over 4x10^4 random states",
        violations == 0 and min_slack >= -1e-9 and elapsed < 300.0,
        f"min slack {min_slack:.3e}, {elapsed:.0f}s",
    )


def test_criterion_5_additivity_over_products():
    worst = 0.0
    rng = np.random.default_rng(555)
    for i in range(100):
        na, nb = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        a = _haar_with_bloch(na, 50_000 + 3 * i)
        b = _haar_with_bloch(nb, 60_000 + 3 * i)
        worst = max(worst, abs(m_pb(tensor_product(a, b)) - m_pb(a) - m_pb(b)))
    _verdict(5, "detection value adds over tensor factors", worst <= 1e-9, f"worst {worst:.2e}")


def test_criterion_6_oracle_equivalence():
    worst = 0.0
    for n in (3, 4, 5, 6):
        for trial in range(50):
            state = make_random_haar(n, 70_000 + 100 * n + trial)
            for k, l in itertools.combinations(range(n), 2):
                block = pair_block(reduced_density_pair(state, k, l))
                for i in range(3):
                    for j in range(3):
                        mu = [0] * n
                        mu[k], mu[l] = i + 1, j + 1
                        worst = max(worst, abs(block[i, j] - correlation_component(state, mu)))
    _verdict(
        6,
        "partial-trace path matches the full-operator oracle on every two-index component",
        worst <= 1e-10,
        f"worst {worst:.2e}",
    )


def test_criterion_7_threshold_table():
    ok = True
    for n in range(3, 13):
        for k in range(2, n):
            brute = max(partition_bound(p) for p in enumerate_partitions(n, k))
            if s_threshold(n, k) != brute:
                ok = False
    _verdict(7, "closed-form thresholds equal brute-force partition maxima (n <= 12)", ok)


def test_criterion_8_depth_report_for_seven_qubit_balanced_state():
    rep = exclusion_report(make_dicke(7, 3))
    excluded = {p for p, _ in rep.excluded_partitions}
    expected_excluded = set(enumerate_partitions(7)) - {(7,), (6, 1)}
    ok = (
        abs(rep.m_pb - 96 / 7) <= 1e-9
        and excluded == expected_excluded
        and rep.surviving_partitions == ((7,), (6, 1))
        and rep.entangled_subset_guarantee >= 6
        and rep.depth_statement_m == 2
        and rep.depth_proof_parties == 3
    )
    _verdict(
        8,
        "7-qubit balanced-excitation report: exclusions, subset guarantee, both depth figures",
        ok,
        f"guarantee >= {rep.entangled_subset_guarantee}, depth figures "
        f"{rep.depth_statement_m}/{rep.depth_proof_parties}, "
        f"family depth claim {dicke_claimed_depth(7)}",
    )


def test_criterion_9_soundness_on_product_states():
    rng = np.random.default_rng(909)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        partitions = enumerate_partitions(n)
        true_partition = partitions[int(rng.integers(len(partitions)))]
        state = None
        for r in true_partition:
            factor = make_random_haar(r, int(rng.integers(2**31)))
            state = factor if state is None else tensor_product(state, factor)
        rep = exclusion_report(state)
        if true_partition in {p for p, _ in rep.excluded_partitions}:
            failures += 1
    _verdict(
        9,
        "product states are never excluded at their true partition (200 trials, n <= 8)",
        failures == 0,
        f"{failures} false exclusions",
    )


def test_criterion_10_zero_bloch_policies_on_cat_state():
    g = make_ghz(3)
    canonical = m_pb(g, ZeroPolicy.canonical())
    maximize = m_pb(g, ZeroPolicy.maximize(samples=64, seed=0))
    rep = exclusion_report(g, ZeroPolicy.maximize(samples=64, seed=0))
    ok = (
        abs(canonical) <= 1e-12
        and maximize >= 3 - 1e-6
        and rep.genuine_multipartite is True
    )
    _verdict(
        10,
        "3-qubit cat state: canonical policy silent, axis search certifies genuineness",
        ok,
        f"canonical {canonical:.2e}, maximize {maximize:.12g}",
    )
