"""The benchmark's workloads: inputs from a seed, one operation each, checks.

Every workload is a closed loop with one client: it runs the operations of a
fixed mix (one *cycle*) back to back, cycle after cycle. ``inputs(i)`` gives
the mix for input set ``i``; the loop runs set 0 twice and then sets
1, 2, ..., so every run repeats one set for the determinism checks while the
later cycles draw fresh inputs. A record's key ``(input set, position)``
names the operation; equal keys must give equal outputs.

Checks run after the timed loop. Each returns one message per failing
record; a record that raised counts as failed as well.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ORACLE_TOL = 1e-10
# a StressSummary against its full-operator recomputation
SUMMARY_TOL = 1e-9
DICKE_TOL = 1e-9
# canonical <= maximize holds exactly in real arithmetic; allow rounding
ROUNDING_TOL = 1e-12


@dataclass(frozen=True)
class Item:
    """One operation's input. ``states`` is the number of states it checks."""

    label: str
    n: int
    states: int
    payload: tuple


@dataclass
class Record:
    key: tuple[int, int]
    item: Item
    seconds: float
    output: object = None
    error: str | None = None


@dataclass
class Failures:
    messages: list[str] = field(default_factory=list)
    records: set[int] = field(default_factory=set)

    def add(self, index: int, message: str) -> None:
        self.records.add(index)
        self.messages.append(message)


def check_repeats(records: list[Record], failures: Failures) -> None:
    """Every record must match the first record with the same key."""
    first: dict[tuple[int, int], int] = {}
    for i, rec in enumerate(records):
        if rec.error is not None:
            continue
        j = first.setdefault(rec.key, i)
        if j != i and records[j].output != rec.output:
            failures.add(i, f"{rec.item.label}: output differs from its repeat")


def check_all(workload, records: list[Record]) -> Failures:
    failures = Failures()
    for i, rec in enumerate(records):
        if rec.error is not None:
            failures.add(i, f"{rec.item.label}: raised {rec.error}")
    workload.check(records, failures)
    check_repeats(records, failures)
    return failures


def input_set(cycle: int) -> int:
    """Input set of a cycle: set 0 twice, then 1, 2, ..."""
    return max(0, cycle - 1)


# ---------------------------------------------------------------------------
# large-file-verdict


def _haar_amplitudes(n: int, rng: np.random.Generator) -> np.ndarray:
    dim = 1 << n
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def _dicke_amplitudes(n: int, e: int) -> np.ndarray:
    idx = np.arange(1 << n)
    weight = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        weight += (idx >> b) & 1
    amps = (weight == e).astype(np.complex128)
    return amps / math.sqrt(math.comb(n, e))


def write_state_files(directory: str, seed: int) -> None:
    """Write the large-file mix as entmon state files (run in a child process
    so the JSON building never counts toward the measured process)."""
    for label, kind, n, e in LargeFileVerdict.MIX:
        if kind == "haar":
            amps = _haar_amplitudes(n, np.random.default_rng([seed, n]))
        else:
            amps = _dicke_amplitudes(n, e)
        pairs = amps.view(np.float64).reshape(-1, 2).tolist()
        # json.dumps uses the C encoder; json.dump would not
        text = json.dumps({"n": n, "amplitudes": pairs})
        (Path(directory) / f"{label}.json").write_text(text, encoding="utf-8")


class LargeFileVerdict:
    name = "large-file-verdict"
    # (label, kind, n, excitations): Haar states and Dicke/W states at
    # n = 16, 18, 20. The n = 18 state (4 MiB) fits a 4 MiB L2, n = 20
    # (16 MiB) only the L3. One cycle is about 8.5 s on a 2-core Xeon.
    MIX = (
        ("haar-16", "haar", 16, None),
        ("dicke-16-5", "dicke", 16, 5),
        ("haar-18", "haar", 18, None),
        ("w-18", "dicke", 18, 1),
        ("haar-20", "haar", 20, None),
    )

    def __init__(self, entmon, seed: int, workdir: Path):
        self.entmon = entmon
        subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); "
             "from perfbench.workloads import write_state_files; "
             "write_state_files(sys.argv[2], int(sys.argv[3]))",
             str(Path(__file__).resolve().parent.parent), str(workdir), str(seed)],
            check=True, timeout=170,
        )
        self.items = [
            Item(label, n, 1, (str(workdir / f"{label}.json"), kind, e))
            for label, kind, n, e in self.MIX
        ]

    def inputs(self, index: int) -> list[Item]:
        # the files are too costly to regenerate, so every cycle reuses them
        return self.items

    def run(self, item: Item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.entmon.cli.main(["analyze", "--state", item.payload[0], "--format", "json"])
        return code, out.getvalue()

    def check(self, records: list[Record], failures: Failures) -> None:
        for i, rec in enumerate(records):
            if rec.error is None:
                for msg in self._check_one(rec):
                    failures.add(i, f"{rec.item.label}: {msg}")

    def _check_one(self, rec: Record) -> list[str]:
        det, families = self.entmon.detector, self.entmon.families
        code, text = rec.output
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads(text)
        n, value = rec.item.n, doc["m_pb"]
        _, kind, e = rec.item.payload
        errors = []
        if doc["n"] != n:
            errors.append(f"n = {doc['n']}")
        if kind == "dicke":
            expected = families.dicke_m_pb(n, e)
            if not abs(value - expected) <= DICKE_TOL:
                errors.append(f"m_pb {value!r} != closed form {expected!r}")
        elif not 0.0 <= value <= math.comb(n, 2):
            errors.append(f"m_pb {value!r} outside [0, C(n,2)]")
        errors += verdict_errors(det, n, value, doc)
        return errors


def verdict_errors(det, n: int, value: float, doc: dict) -> list[str]:
    """Compare a document's verdict fields with the detector's thresholds."""
    eps = det.EPS_DET
    excluded, surviving = [], []
    for parts in det.enumerate_partitions(n):
        bound = det.partition_bound(parts)
        if len(parts) > 1 and value > bound + eps:
            excluded.append([list(parts), bound])
        else:
            surviving.append(list(parts))
    gt = det.genuine_threshold(n)
    expected = {
        "thresholds": {
            **{f"s_{k}": det.s_threshold(n, k) for k in range(2, n)},
            "genuine": gt,
            "depth": {str(m): det.depth_threshold(n, m) for m in range(1, n // 2)},
        },
        "excluded_partitions": excluded,
        "surviving_partitions": surviving,
        "entangled_subset_guarantee": min(p[0] for p in surviving),
        "genuine_multipartite": value > gt + eps,
    }
    return [f"{key} disagrees with the thresholds" for key, want in expected.items()
            if doc.get(key) != want]


# ---------------------------------------------------------------------------
# zero-bloch-maximize


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random SU(2) element from a random unit quaternion."""
    w, x, y, z = rng.standard_normal(4)
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    return np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]])


def rotated_ghz(entmon, n: int, rng: np.random.Generator):
    state = entmon.make_ghz(n)
    for q in range(n):
        state = entmon.apply_local_unitary(state, q, random_su2(rng))
    return state


class ZeroBlochMaximize:
    name = "zero-bloch-maximize"
    SAMPLES = 64
    # (kind, n or (k, m)): GHZ, locally rotated GHZ, and GHZ(k) (x) W(m) at
    # n = 4..12. One cycle is about 2 s on a 2-core Xeon.
    MIX = (
        ("ghz", 4), ("rot-ghz", 5), ("ghz-w", (3, 3)), ("rot-ghz", 7), ("ghz", 8),
        ("ghz-w", (4, 5)), ("rot-ghz", 10), ("ghz-w", (6, 6)), ("rot-ghz", 12),
    )

    def __init__(self, entmon, seed: int, workdir: Path):
        self.entmon = entmon
        self.seed = seed

    def inputs(self, index: int) -> list[Item]:
        em = self.entmon
        rng = np.random.default_rng([self.seed, index])
        items = []
        for kind, size in self.MIX:
            if kind == "ghz":
                state, label = em.make_ghz(size), f"ghz-{size}"
            elif kind == "rot-ghz":
                state, label = rotated_ghz(em, size, rng), f"rot-ghz-{size}"
            else:
                k, m = size
                state, label = em.tensor_product(em.make_ghz(k), em.make_dicke(m, 1)), f"ghz{k}-w{m}"
            policy_seed = int(rng.integers(2**31))
            items.append(Item(label, state.n, 1, (state, kind, policy_seed)))
        return items

    def run(self, item: Item):
        state, _, policy_seed = item.payload
        em = self.entmon
        return em.exclusion_report(state, em.ZeroPolicy.maximize(self.SAMPLES, policy_seed))

    def check(self, records: list[Record], failures: Failures) -> None:
        em = self.entmon
        canonical: dict[tuple[int, int], float] = {}
        for i, rec in enumerate(records):
            if rec.error is not None:
                continue
            state, kind, _ = rec.item.payload
            report, n = rec.output, rec.item.n
            if rec.key not in canonical:
                canonical[rec.key] = em.m_pb(state, em.ZeroPolicy.canonical())
            if not canonical[rec.key] <= report.m_pb + ROUNDING_TOL:
                failures.add(i, f"{rec.item.label}: maximize {report.m_pb!r} below canonical "
                                f"{canonical[rec.key]!r}")
            if not report.m_pb <= math.comb(n, 2) + em.EPS_DET:
                failures.add(i, f"{rec.item.label}: maximize {report.m_pb!r} above C(n,2)")
            if kind != "ghz-w" and not report.genuine_multipartite:
                failures.add(i, f"{rec.item.label}: not reported genuine_multipartite")


# the search probe: fixed locally rotated GHZ states, the same for every seed
# and workload. One state's shortfall varies by about +-50 % with the draw,
# so a seeded probe would need some 60 states to read steadily.
PROBE_SIZES = (4, 6, 8, 10)
PROBE_SEED = 20121020


def search_reach(entmon) -> tuple[float, list[str]]:
    """Mean of the maximize value over its supremum C(n,2) on the probe.

    The ratio, not the shortfall C(n,2) - m_pb, is reported: a search that
    reaches the supremum drives the shortfall to 0 or rounding noise, where
    a relative bound means nothing, while the ratio stays near 1.
    """
    rng = np.random.default_rng(PROBE_SEED)
    ratios, errors = [], []
    for n in PROBE_SIZES:
        state = rotated_ghz(entmon, n, rng)
        policy = entmon.ZeroPolicy.maximize(ZeroBlochMaximize.SAMPLES, int(rng.integers(2**31)))
        report = entmon.exclusion_report(state, policy)
        if report.m_pb > math.comb(n, 2) + entmon.EPS_DET or not report.genuine_multipartite:
            errors.append(f"search probe n={n}: m_pb {report.m_pb!r}")
        ratios.append(report.m_pb / math.comb(n, 2))
    return float(np.mean(ratios)), errors


# ---------------------------------------------------------------------------
# stress-small-n


class StressSmallN:
    name = "stress-small-n"
    # (n, trials per batch): batches of about 15-25 ms each on a 2-core Xeon
    MIX = ((4, 32), (6, 20), (8, 10))
    SEED_STRIDE = 1000  # > any batch's trial count, so batches never share states

    def __init__(self, entmon, seed: int, workdir: Path):
        self.entmon = entmon
        self.seed = seed

    def inputs(self, index: int) -> list[Item]:
        base = (self.seed * 1_000_000 + index) * self.SEED_STRIDE * len(self.MIX)
        return [
            Item(f"stress-{n}", n, trials, (base + pos * self.SEED_STRIDE,))
            for pos, (n, trials) in enumerate(self.MIX)
        ]

    def run(self, item: Item):
        return self.entmon.monogamy_stress(item.n, item.states, item.payload[0])

    def check(self, records: list[Record], failures: Failures) -> None:
        checked: set[tuple[int, int]] = set()
        for i, rec in enumerate(records):
            if rec.error is not None:
                continue
            summary = rec.output
            if summary.violations != 0:
                failures.add(i, f"{rec.item.label}: {summary.violations} violations")
            if not summary.max_pair_value <= 2.0 + 1e-9:
                failures.add(i, f"{rec.item.label}: max pair value {summary.max_pair_value!r}")
            if rec.key not in checked:
                checked.add(rec.key)
                msgs = [self._oracle_error(rec.item)]
                if rec.key[0] == 0:
                    msgs += self._summary_errors(rec.item, summary)
                for msg in filter(None, msgs):
                    failures.add(i, f"{rec.item.label}: {msg}")

    def _oracle_error(self, item: Item) -> str | None:
        """One sampled trial's pair block against the full-operator oracle."""
        em, n, seed = self.entmon, item.n, item.payload[0]
        rng = np.random.default_rng(seed)
        trial = int(rng.integers(item.states))
        k, l = sorted(int(q) for q in rng.choice(n, size=2, replace=False))
        state = em.make_random_haar(n, seed + trial)
        block = em.pair_block(em.reduced_density_pair(state, k, l))
        if np.max(np.abs(block - oracle_block(em, state, k, l))) > ORACLE_TOL:
            return f"pair block ({k},{l}) of trial {trial} disagrees with the oracle"
        return None

    def _summary_errors(self, item: Item, summary) -> list[str]:
        """The batch's StressSummary against a trial-by-trial recomputation."""
        want = reference_stress(self.entmon, item.n, item.states, item.payload[0])
        return [f"{name} {getattr(summary, name)!r} != reference {value!r}"
                for name, value in want.items()
                if not abs(getattr(summary, name) - value) <= SUMMARY_TOL]


def oracle_block(em, state, k: int, l: int) -> np.ndarray:
    """3x3 correlation block of qubits k < l from full-operator components."""
    block = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            mu = [0] * state.n
            mu[k], mu[l] = a + 1, b + 1
            block[a, b] = em.correlation_component(state, mu)
    return block


def reference_stress(em, n: int, trials: int, seed: int) -> dict[str, float]:
    """The slacks and largest pair value of ``monogamy_stress(n, trials, seed)``
    under its seeding contract (trial i: state seed + i, frames drawn by
    ``random_rotation`` from rng [seed, i]), with every pair block taken from
    the full-operator oracle instead of the reductions under test."""
    pairs = list(itertools.combinations(range(n), 2))
    mins = [math.inf] * 4
    max_pair = -math.inf
    for i in range(trials):
        state = em.make_random_haar(n, seed + i)
        frame_rng = np.random.default_rng([seed, i])
        frames = [em.random_rotation(frame_rng) for _ in range(n)]
        values = {}
        for k, l in pairs:
            inplane = (frames[k] @ oracle_block(em, state, k, l) @ frames[l].T)[:2, :2]
            values[k, l] = float(np.sum(inplane**2))
        two_term = [values[p] + values[r] for q in range(n)
                    for p, r in itertools.combinations([p for p in pairs if q in p], 2)]
        triple = [values[k, l] + values[l, m] + values[k, m]
                  for k, l, m in itertools.combinations(range(n), 3)]
        total_bound = 2.0 if n == 2 else float(math.comb(n, 2))
        slacks = (
            2.0 - max(values.values()),
            min((2.0 - v for v in two_term), default=math.inf),
            min((3.0 - v for v in triple), default=math.inf),
            total_bound - sum(values.values()),
        )
        mins = [min(a, b) for a, b in zip(mins, slacks)]
        max_pair = max(max_pair, max(values.values()))
    return {
        "min_pair_slack": mins[0],
        "min_two_term_slack": mins[1],
        "min_triple_slack": mins[2],
        "min_total_slack": mins[3],
        "max_pair_value": max_pair,
    }


WORKLOADS = {w.name: w for w in (LargeFileVerdict, ZeroBlochMaximize, StressSmallN)}
