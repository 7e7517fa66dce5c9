"""Benchmark of the entmon pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads: large-file-verdict, zero-bloch-maximize, stress-small-n (see
BENCHMARK.json and perfbench/README.md). Each is a closed loop with one
client, in one process, with the BLAS thread count set to nproc.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every cycle
once untraced and once with spans on every public function of the six
entmon modules, and reports the per-layer metrics. Lines before the last
describe the host and every metric by name and unit; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 when a result was printed, 1 when the run could not produce
one, 2 when the entmon sources are missing.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if Path(sys.path[0]).resolve() == BENCH_DIR:
    sys.path[0] = str(ROOT)

from perfbench import host  # noqa: E402  (imports nothing that loads BLAS)
from perfbench.stats import median, tail_percentile  # noqa: E402

WORKLOAD_NAMES = ("large-file-verdict", "zero-bloch-maximize", "stress-small-n")
MIN_CYCLES = 2  # cycle 1 repeats cycle 0's inputs for the determinism checks
SETUP_REPS = 11


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=_nonneg_int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_op(wl, key, item, tracer=None):
    from perfbench.workloads import Record

    t0 = time.perf_counter()
    try:
        out = tracer.op(item.n, wl.run, item) if tracer else wl.run(item)
        err = None
    except Exception as exc:  # the loop must go on; the record counts as failed
        traceback.print_exc(file=sys.stderr)
        out, err = None, f"{type(exc).__name__}: {exc}"
    return Record(key, item, time.perf_counter() - t0, out, err)


def measure(wl, seconds: float):
    """Closed loop of whole cycles until ``seconds`` have passed."""
    from perfbench.workloads import input_set

    records, cycle, t0 = [], 0, time.perf_counter()
    while cycle < MIN_CYCLES or time.perf_counter() - t0 < seconds:
        index = input_set(cycle)
        for pos, item in enumerate(wl.inputs(index)):
            records.append(run_op(wl, (index, pos), item))
        cycle += 1
    return records, cycle, time.perf_counter() - t0


def measure_traced(wl, seconds: float, tracer):
    """Each cycle runs once untraced and once traced, alternating which goes
    first. Returns the untraced and the traced records, the untraced and
    traced wall times, and the cycle count."""
    records, walls, cycle, t0 = ([], []), [0.0, 0.0], 0, time.perf_counter()
    while cycle < 1 or time.perf_counter() - t0 < seconds:
        items = wl.inputs(cycle)
        for traced in (False, True) if cycle % 2 == 0 else (True, False):
            t = time.perf_counter()
            with tracer.active() if traced else contextlib.nullcontext():
                records[traced].extend(
                    run_op(wl, (cycle, pos), item, tracer if traced else None)
                    for pos, item in enumerate(items)
                )
            walls[traced] += time.perf_counter() - t
        cycle += 1
    return records[0], records[1], walls, cycle


def tally(records, failures, probe_errors) -> tuple[int, int]:
    """Operations attempted and failed; the search probe counts as one."""
    return len(records) + 1, len(failures.records) + (1 if probe_errors else 0)


def end_to_end(records, mix_len: int) -> dict:
    by_pos = defaultdict(list)
    for rec in records:
        if rec.error is None:
            by_pos[rec.key[1]].append(rec)
    if len(by_pos) != mix_len:
        raise RuntimeError("no successful operation at some position of the mix")
    positions = {
        pos: (recs[0].item.label, median([r.seconds for r in recs]), len(recs))
        for pos, recs in sorted(by_pos.items())
    }
    cycle_s = sum(t for _, t, _ in positions.values())
    cycle_states = sum(recs[0].item.states for recs in by_pos.values())
    times = [r.seconds for recs in by_pos.values() for r in recs]
    return {
        # one cycle of the mix at each position's median time
        "verdicts_per_s": mix_len / cycle_s,
        "trials_per_s": cycle_states / cycle_s,
        # the median over the mix of each position's median: a plain median
        # of all samples jumps between the two positions nearest the middle
        "verdict_p50_s": median([t for _, t, _ in positions.values()]),
        "verdict_p90_s": tail_percentile(times, 90),
        "samples": len(times),
        "positions": positions,
    }


def layer_metrics(tracer, traced_records, walls, copy) -> dict:
    import numpy as np

    from perfbench.spans import LAYERS, root_op_n, self_times

    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = self_times(a["parent"], a["start"], a["end"])
    names = tracer.names
    layer_index = {layer: i for i, layer in enumerate(LAYERS)}
    span_layer = np.array([layer_index.get(name.split(".")[0], -1) for name in names])[a["name_id"]]
    calls_by_name = np.bincount(a["name_id"], minlength=len(names))
    dur_by_name = np.bincount(a["name_id"], weights=dur, minlength=len(names))

    def by_name(stat, name):
        return float(stat[names.index(name)]) if name in names else 0.0

    untraced_wall, traced_wall = walls
    m: dict[str, tuple[float, str]] = {}
    layer_self = 0.0
    for layer, i in layer_index.items():
        mask = span_layer == i
        s = float(own[mask].sum())
        layer_self += s
        m[f"{layer}.self_s"] = (s, "s")
        m[f"{layer}.calls"] = (int(mask.sum()), "count")
        # a wrapper's own cost falls outside its span, on the caller's self
        # time, so a span's self time is about its untraced time
        m[f"{layer}.share"] = (s / untraced_wall, "frac")

    reductions = np.isin(
        a["name_id"],
        [names.index(f"tensor.{f}") for f in ("reduced_density_single", "reduced_density_pair")],
    )
    op_n = root_op_n(a["parent"], a["op_n"])[reductions]
    computed = float(np.sum(16.0 * np.exp2(op_n)))
    gb_per_s = computed / m["tensor.self_s"][0] / 1e9 if m["tensor.self_s"][0] > 0 else 0.0
    pairs = sum(r.item.states * math.comb(r.item.n, 2) for r in traced_records)
    m["tensor.bytes_computed"] = (computed, "B")
    m["tensor.gb_per_s"] = (gb_per_s, "GB/s")
    m["tensor.bw_fraction"] = (gb_per_s / copy["gb_per_s"], "frac")
    m["tensor.pair_reductions_per_pair"] = (
        by_name(calls_by_name, "tensor.reduced_density_pair") / pairs, "ratio")
    m["statevec.load_s"] = (by_name(dur_by_name, "statevec.state_from_json_dict"), "s")
    m["cli.render_s"] = (by_name(dur_by_name, "cli.render_json"), "s")
    m["frames.rotation_to_z_calls"] = (int(by_name(calls_by_name, "frames.rotation_to_z")), "count")
    m["host.copy_gb_per_s"] = (copy["gb_per_s"], "GB/s")
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    m["trace.unattributed_frac"] = (1.0 - layer_self / traced_wall, "frac")
    return m


def run_one(args) -> int:
    import entmon

    if Path(entmon.__file__).resolve().parent != SRC / "entmon":
        print(f"error: imported entmon from {entmon.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import entmon.cli  # noqa: F401  (the CLI module is a traced layer too)

    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS, check_all, input_set, search_reach

    # set-up first, so the copy probe's two large arrays never precede it
    setup = host.setup_seconds(SRC, SETUP_REPS) if not args.trace else []
    cache_info = host.caches()
    facts = host.host_facts(cache_info)
    copy = host.copy_bandwidth(host.copy_probe_bytes(cache_info))
    facts["copy_gb_per_s"] = copy["gb_per_s"]
    facts["copy_array_bytes"] = copy["array_bytes"]
    print("host " + json.dumps(facts))

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](entmon, args.seed, workdir)
        # untimed: the largest input lets lazy imports finish and the
        # allocator reach its steady state (the first 16 MiB state pays
        # page faults that later ones do not)
        wl.run(max(wl.inputs(input_set(0)), key=lambda item: item.n))
        if args.trace:
            tracer = Tracer(entmon)
            records, traced_records, walls, cycles = measure_traced(wl, args.seconds, tracer)
            wall = sum(walls)
            checked = records + traced_records
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            records, cycles, wall = measure(wl, args.seconds)
            checked = records
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        failures = check_all(wl, checked)
        reach, probe_errors = search_reach(entmon)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally(checked, failures, probe_errors)
    for msg in (failures.messages + probe_errors)[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    e2e = end_to_end(records, len(wl.MIX))
    print(f"workload {args.workload} seed {args.seed}: {len(checked)} operations in "
          f"{cycles} cycles, {wall:.3f} s, trace {'on' if args.trace else 'off'}")
    shown = {
        "failed_frac": (failed / attempted, "frac"),
        "verdicts_per_s": (e2e["verdicts_per_s"], "1/s"),
        "verdict_p50_s": (e2e["verdict_p50_s"], "s"),
        "verdict_p90_s": (e2e["verdict_p90_s"], "s"),
        "search_reach": (reach, "frac"),
    }
    if args.workload == "stress-small-n":
        shown["trials_per_s"] = (e2e["trials_per_s"], "1/s")
    if args.trace:
        metrics = layer_metrics(tracer, traced_records, walls, copy)
    else:
        shown["setup_s"] = (median(setup), "s")
        shown["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics = {k: shown[k] for k in
                   ("setup_s", "verdicts_per_s", "verdict_p50_s", "peak_rss_mb", "search_reach")}
    for label, t, count in e2e["positions"].values():
        print(f"  {label}: median {t} s over {count} operations")
    for name, (value, unit) in {**shown, **metrics}.items():
        note = ""
        if name == "verdict_p90_s" and value is None:
            note = f" (not reported: {e2e['samples']} samples, needs 100)"
        elif name in ("verdict_p50_s", "verdict_p90_s"):
            note = f" ({e2e['samples']} samples)"
        elif name == "setup_s":
            note = f" (median of {len(setup)} fresh interpreters)"
        print(f"  {name} = {value} {unit}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entmon" / "__init__.py").is_file():
        print(f"error: entmon sources not found under {SRC}", file=sys.stderr)
        return 2
    host.set_blas_threads(host.nproc())
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
