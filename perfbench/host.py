"""Host facts, BLAS thread settings, copy bandwidth and set-up time.

The copy-bandwidth probe and the set-up timings run in child processes so
that their memory and imports never reach the measured process.
"""
from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
MIB = 1 << 20
# copy-probe array size when the last-level cache size is unknown
FALLBACK_COPY_BYTES = 512 * MIB


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def set_blas_threads(threads: int) -> None:
    """Must run before numpy is imported; never more threads than nproc."""
    threads = max(1, min(threads, nproc()))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _parse_size(text: str) -> int:
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:].upper(), 1)
    return int(text.rstrip("KkMmGg")) * scale


def caches() -> dict[str, dict[str, int]]:
    """Per-level cache size and instance count, from sysfs (empty if absent)."""
    base = Path("/sys/devices/system/cpu")
    levels: dict[str, dict] = {}
    for cpu in sorted(base.glob("cpu[0-9]*")):
        for index in sorted((cpu / "cache").glob("index[0-9]*")):
            try:
                kind = (index / "type").read_text().strip()
                if kind == "Instruction":
                    continue
                level = f"L{(index / 'level').read_text().strip()}"
                size = _parse_size((index / "size").read_text())
                shared = (index / "shared_cpu_list").read_text().strip()
            except (OSError, ValueError):
                continue
            entry = levels.setdefault(level, {"bytes_per_instance": size, "shared": set()})
            entry["shared"].add(shared)
    return {
        level: {"bytes_per_instance": e["bytes_per_instance"], "instances": len(e["shared"])}
        for level, e in sorted(levels.items())
    }


def copy_probe_bytes(cache_info: dict) -> int:
    """Array size for the bandwidth probe: at least 4x the last-level caches."""
    if not cache_info:
        return FALLBACK_COPY_BYTES
    last = cache_info[max(cache_info)]
    total = last["bytes_per_instance"] * last["instances"]
    return -(-4 * total // MIB) * MIB


_COPY_PROBE = """
import json, sys, time
import numpy as np
a = np.ones(int(sys.argv[1]) // 8)
b = np.zeros_like(a)
times = []
for _ in range(5):
    t = time.perf_counter()
    np.copyto(b, a)
    times.append(time.perf_counter() - t)
print(json.dumps({"array_bytes": a.nbytes, "times": times}))
"""


def copy_bandwidth(array_bytes: int) -> dict:
    """numpy copy bandwidth in GB/s, counting bytes read plus bytes written
    (the STREAM convention); median of four copies after a warm-up copy."""
    out = subprocess.run(
        [sys.executable, "-c", _COPY_PROBE, str(array_bytes)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    probe = json.loads(out.stdout)
    times = sorted(probe["times"][1:])
    mid = (times[1] + times[2]) / 2
    return {"gb_per_s": 2 * probe["array_bytes"] / mid / 1e9, "array_bytes": probe["array_bytes"]}


_SETUP_PROBE = """
import time
import entmon, entmon.cli
entmon.cli.build_parser()
print(repr(time.monotonic()))
"""


def setup_seconds(src: Path, reps: int) -> list[float]:
    """Time from spawning a fresh interpreter until ``import entmon`` and
    ``entmon.cli.build_parser()`` have returned, ``reps`` times.

    CLOCK_MONOTONIC is system-wide, so the child's timestamp is comparable
    with the parent's spawn time.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(reps):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE],
            check=True, capture_output=True, text=True, env=env, timeout=120,
        )
        times.append(float(out.stdout.strip()) - t0)
    return times


def host_facts(cache_info: dict) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": cache_info,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }
