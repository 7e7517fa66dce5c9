"""Run one workload under several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/spread.py --workload stress-small-n --seeds 1 2 3 4 5

The spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``. A metric is steady when its spread
stays below a third of its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if Path(sys.path[0]).resolve() == ROOT / "perfbench":
    sys.path[0] = str(ROOT)

from perfbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    status = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
            status = 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()))
    for metric in bench["end_to_end"]:
        xs = values.get(metric["name"], [])
        if len(xs) < 2:
            continue
        mid = statistics.median(xs)
        spread = quartile_spread(xs)
        verdict = "steady" if spread < metric["bound"] / 3 else (
            "within bound" if spread <= metric["bound"] else "TOO NOISY")
        print(f"{metric['name']:16} median {mid:.6g} {metric['unit']:5} spread {spread:.4f} "
              f"bound {metric['bound']}  {verdict}  ({len(xs)} runs)")
    return status


if __name__ == "__main__":
    sys.exit(main())
