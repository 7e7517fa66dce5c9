"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import entmon  # noqa: E402
import entmon.cli  # noqa: E402
from perfbench.run import end_to_end, tally  # noqa: E402
from perfbench.spans import Tracer, root_op_n, self_times  # noqa: E402
from perfbench.stats import quartile_spread, tail_percentile  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    Item,
    Record,
    StressSmallN,
    ZeroBlochMaximize,
    check_all,
    verdict_errors,
)


def test_tail_reported_only_with_ten_samples_beyond():
    assert tail_percentile(list(range(99)), 90) is None
    assert tail_percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert tail_percentile(list(range(999)), 99) is None
    assert tail_percentile(list(range(1000)), 99) is not None
    # linear interpolation between closest ranks, as numpy's default
    assert tail_percentile([1, 2, 3, 4, 5] * 20, 90) == 5
    assert tail_percentile(list(range(1, 101)), 50) == 50.5


def test_spread_rule():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles (exclusive): q1 = 2.75, q3 = 8.25, median 5.5
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]
    op_n = np.array([7, -1, -1, -1])
    assert root_op_n(parent, op_n).tolist() == [7, 7, 7, 7]


def test_tracer_wraps_consumer_bindings_and_restores_them():
    original = entmon.cli.exclusion_report
    original_pair_block = entmon.detector.pair_block
    tracer = Tracer(entmon)
    state = entmon.make_dicke(4, 1)
    with tracer.active():
        assert entmon.cli.exclusion_report is not original
        assert entmon.detector.pair_block is not original_pair_block
        tracer.op(4, entmon.exclusion_report, state)
    assert entmon.cli.exclusion_report is original
    assert entmon.detector.pair_block is original_pair_block
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    assert names[0] == "bench.op" and names[1] == "detector.exclusion_report"
    assert names.count("tensor.reduced_density_pair") == math.comb(4, 2)
    # the inner call went through detector's own binding of the tensor function
    pb = names.index("tensor.pair_block")
    assert names[spans["parent"][pb]] == "detector.m_pb"
    own = self_times(spans["parent"], spans["start"], spans["end"])
    total = spans["end"][0] - spans["start"][0]
    assert own.sum() == pytest.approx(total)


def _stress_record(key, error=None, **wrong):
    item = Item("stress-4", 4, 2, (1000,))
    summary = None
    if error is None:
        summary = dataclasses.replace(entmon.monogamy_stress(4, 2, 1000), **wrong)
    return Record(key, item, 0.01, summary, error)


def test_wrong_output_is_counted_in_failed_frac():
    wl = StressSmallN(entmon, 0, None)
    records = [
        _stress_record((0, 0)),
        _stress_record((1, 0), violations=3),
        _stress_record((2, 0), max_pair_value=2.5),
        _stress_record((3, 0), error="ValueError: boom"),
    ]
    failures = check_all(wl, records)
    assert failures.records == {1, 2, 3}
    attempted, failed = tally(records, failures, probe_errors=[])
    assert (attempted, failed) == (5, 3)
    assert tally(records[:1], check_all(wl, records[:1]), ["probe"]) == (2, 1)


def test_summary_checked_against_recomputation():
    # in range and free of violations, but not what the batch gives
    wl = StressSmallN(entmon, 0, None)
    good = _stress_record((0, 0))
    assert check_all(wl, [good]).records == set()
    off = _stress_record((0, 0), min_triple_slack=good.output.min_triple_slack + 1e-6)
    failures = check_all(wl, [off])
    assert failures.records == {0}
    assert failures.messages[0].startswith("stress-4: min_triple_slack ")


def test_repeated_input_must_give_identical_output():
    wl = StressSmallN(entmon, 0, None)
    records = [_stress_record((0, 0)), _stress_record((0, 0), max_pair_value=1.5)]
    assert check_all(wl, records).records == {1}


def test_verdict_fields_checked_against_thresholds():
    state = entmon.make_dicke(7, 3)
    doc = json.loads(entmon.cli.render_json(entmon.exclusion_report(state).to_json_dict()))
    assert verdict_errors(entmon.detector, 7, doc["m_pb"], doc) == []
    doc["genuine_multipartite"] = not doc["genuine_multipartite"]
    assert verdict_errors(entmon.detector, 7, doc["m_pb"], doc) == [
        "genuine_multipartite disagrees with the thresholds"
    ]


def test_zero_bloch_inputs_are_seeded_and_checked():
    a = ZeroBlochMaximize(entmon, 5, None).inputs(2)
    b = ZeroBlochMaximize(entmon, 5, None).inputs(2)
    c = ZeroBlochMaximize(entmon, 6, None).inputs(2)
    same = [np.array_equal(x.payload[0].amplitudes, y.payload[0].amplitudes) for x, y in zip(a, b)]
    assert all(same)
    assert not np.array_equal(a[1].payload[0].amplitudes, c[1].payload[0].amplitudes)
    wl = ZeroBlochMaximize(entmon, 5, None)
    item = a[0]  # GHZ(4)
    report = entmon.exclusion_report(item.payload[0], entmon.ZeroPolicy.canonical())
    failures = check_all(wl, [Record((0, 0), item, 0.1, report)])
    assert failures.messages == ["ghz-4: not reported genuine_multipartite"]


def test_throughput_uses_each_position_median():
    item = Item("x", 4, 3, ())
    records = [Record((c, p), item, t) for c, p, t in
               [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 2.0), (2, 0, 1.0), (2, 1, 100.0)]]
    e2e = end_to_end(records, 2)
    assert e2e["verdicts_per_s"] == pytest.approx(2 / (1.0 + 2.0))
    assert e2e["trials_per_s"] == pytest.approx(6 / (1.0 + 2.0))
    assert e2e["verdict_p50_s"] == 1.5
    assert e2e["verdict_p90_s"] is None
