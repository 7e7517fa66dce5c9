"""Command-line interface: analyze, sweep-dicke, stress, partitions.

Exit status: 0 success, 1 a stress run found a bound violation, 2 input
validation failure. JSON output is deterministic (floats rendered with 17
significant digits, fixed key order), so identical invocations produce
byte-identical documents.

Each command imports the modules it runs, so building the parser, ``--help``,
a usage error and ``partitions`` load no NumPy.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import TYPE_CHECKING

from .partitions import _exceeds, _threshold_families, partition_table

if TYPE_CHECKING:
    from .detector import DetectionReport
    from .frames import ZeroPolicy
    from .statevec import PureState


class InputError(Exception):
    """Invalid user input; reported on stderr with exit status 2."""


# ---------------------------------------------------------------------------
# deterministic JSON rendering


def render_json(obj) -> str:
    """Serialize with floats at 17 significant digits for byte-stable output."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        value = float(obj)
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite number {value!r}")
        out.append(format(value, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _emit(value, out)
        out.append("]")
    else:
        # a NumPy scalar can exist only once NumPy is loaded
        np = sys.modules.get("numpy")
        if np is not None and isinstance(obj, np.integer):
            _emit(int(obj), out)
        elif np is not None and isinstance(obj, np.floating):
            _emit(float(obj), out)
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else (_fmt(v) if isinstance(v, float) else v) for v in row])


# ---------------------------------------------------------------------------
# input parsing


def parse_zero_policy(text: str, seed: int) -> ZeroPolicy:
    """Parse canonical | axis=x,y,z | maximize[:samples]."""
    from .frames import ZeroPolicy

    if text == "canonical":
        return ZeroPolicy.canonical()
    if text.startswith("axis="):
        parts = text[len("axis="):].split(",")
        if len(parts) != 3:
            raise InputError(f"axis policy needs three components, got {text!r}")
        try:
            vec = [float(p) for p in parts]
        except ValueError:
            raise InputError(f"axis components must be numbers, got {text!r}") from None
        try:
            return ZeroPolicy.fixed_axis(vec)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    if text == "maximize" or text.startswith("maximize:"):
        samples = 64
        if ":" in text:
            try:
                samples = int(text.split(":", 1)[1])
            except ValueError:
                raise InputError(f"bad sample count in {text!r}") from None
        try:
            return ZeroPolicy.maximize(samples=samples, seed=seed)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    raise InputError(
        f"unknown zero policy {text!r}; expected canonical, axis=x,y,z, or maximize[:samples]"
    )


def _load_state_file(path: str) -> PureState:
    from .statevec import _state_from_json_file, max_qubits

    # a malformed ENTMON_MAX_QUBITS is reported as itself, not as a fault of the file
    try:
        max_qubits()
    except ValueError as exc:
        raise InputError(str(exc)) from None
    # the file is read inside the parse, so a read failure surfaces there too
    try:
        with open(path, "rb") as fh:
            return _state_from_json_file(fh)
    except OSError as exc:
        raise InputError(f"cannot read state file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"state file {path!r} is not valid JSON: {exc}") from None
    except ValueError as exc:
        raise InputError(f"state file {path!r}: {exc}") from None


def _resolve_state(args) -> tuple[PureState, str]:
    from . import families

    if args.state is not None:
        return _load_state_file(args.state), args.state
    if args.family is None:
        raise InputError("provide either --state FILE or --family NAME --n N [--e E]")
    if args.n is None:
        raise InputError("--family requires --n")
    name = {"plus": "plus-product"}.get(args.family, args.family)
    try:
        spec = families.FamilySpec(name, args.n, args.e)
        return families.state_for(spec), spec.label()
    except ValueError as exc:
        raise InputError(str(exc)) from None


# ---------------------------------------------------------------------------
# analyze


def _report_csv_row(report: DetectionReport, residual: float | None) -> tuple[list[str], list]:
    header = [
        "n",
        "policy",
        "m_pb",
        "genuine_threshold",
        "genuine_multipartite",
        "entangled_subset_guarantee",
        "not_product_min_k",
        "depth_statement_m",
        "depth_proof_parties",
        "excluded_count",
        "surviving_count",
        "factorization_residual",
    ]
    row = [
        report.n,
        report.policy,
        float(report.m_pb),
        None if report.genuine_threshold is None else float(report.genuine_threshold),
        report.genuine_multipartite,
        report.entangled_subset_guarantee,
        report.not_product_min_k,
        report.depth_statement_m,
        report.depth_proof_parties,
        len(report.excluded_partitions),
        len(report.surviving_partitions),
        None if residual is None else float(residual),
    ]
    return header, row


def _parts_str(parts: tuple[int, ...]) -> str:
    return "(" + "+".join(str(r) for r in parts) + ")"


def _report_text(report: DetectionReport, source: str, residual: float | None) -> list[str]:
    lines = [
        f"state: {source}",
        f"qubits: {report.n}",
        f"zero-axis policy: {report.policy}",
        f"M^(pb) = {_fmt(report.m_pb)}",
        "",
    ]
    if report.n == 2:
        from .detector import _monogamy_bounds

        bound = _monogamy_bounds(2)["pair"]
        lines.append("note: k-product / depth thresholds require n >= 3; reporting the")
        lines.append("      global pair bound and the factorization residual only.")
        lines.append(f"pair bound: {bound:g}   value {_fmt(report.m_pb)}   "
                     + ("EXCEEDED (bug)" if _exceeds(report.m_pb, bound) else "within bound"))
        if residual is not None:
            verdict = "pair is not product" if _exceeds(residual, 0.0) else "consistent with a product pair"
            lines.append(f"factorization residual: {_fmt(residual)}   ({verdict})")
    else:
        lines.append("k-product thresholds (value > threshold => not k-product):")
        for k, s in sorted(report.s_thresholds.items()):
            mark = "exceeded" if _exceeds(report.m_pb, s) else "not exceeded"
            lines.append(f"  s_{k} = {_fmt(s)}   {mark}")
        gt = report.genuine_threshold
        mark = "exceeded" if report.genuine_multipartite else "not exceeded"
        lines.append(f"genuine-multipartite threshold: {_fmt(gt)}   {mark}")
        if report.genuine_multipartite:
            lines.append(f"  => genuinely {report.n}-partite entangled")
        if report.depth_thresholds:
            lines.append("depth thresholds (bipartition family):")
            for m, t in sorted(report.depth_thresholds.items()):
                mark = "exceeded" if _exceeds(report.m_pb, t) else "not exceeded"
                lines.append(f"  m={m}: {_fmt(t)}   {mark}")
            if report.depth_statement_m is not None:
                lines.append(
                    f"  depth figure as stated: genuinely {report.depth_statement_m}-partite entangled"
                )
                lines.append(
                    f"  depth figure via bipartition ordering: >= {report.depth_proof_parties} "
                    "mutually entangled parties"
                )
    lines.append("")
    lines.append(
        f"partitions: {len(report.excluded_partitions)} excluded, "
        f"{len(report.surviving_partitions)} surviving"
    )
    lines.append("surviving: " + " ".join(_parts_str(p) for p in report.surviving_partitions))
    if report.not_product_min_k is not None:
        lines.append(f"not k-product for any k >= {report.not_product_min_k}")
    lines.append(
        f"entangled-subset guarantee (partition enumeration): >= {report.entangled_subset_guarantee}"
    )
    return lines


def cmd_analyze(args) -> int:
    from . import detector

    state, source = _resolve_state(args)
    if state.n < 2:
        raise InputError(f"analyze needs at least 2 qubits, got n={state.n}")
    policy = parse_zero_policy(args.zero_policy, args.seed)
    report = detector.exclusion_report(state, policy)
    residual = detector.factorization_residual(state, 0, 1) if state.n == 2 else None
    if args.format == "json":
        print(render_json(report.to_json_dict()))
    elif args.format == "csv":
        header, row = _report_csv_row(report, residual)
        _write_csv(header, [row])
    else:
        print("\n".join(_report_text(report, source, residual)))
    return 0


# ---------------------------------------------------------------------------
# sweep-dicke


def cmd_sweep_dicke(args) -> int:
    from . import detector, families
    from .frames import ZeroPolicy

    if args.n_max > 15 or args.n_max < 2:
        raise InputError(f"--n-max must be in 2..15, got {args.n_max}")
    rows = []
    for n in range(2, args.n_max + 1):
        in_domain = families.dicke_formula_stated_domain(n)
        for e in range(n + 1):
            try:
                state = families.state_for(families.FamilySpec("dicke", n, e))
            except ValueError as exc:  # a bad ENTMON_MAX_QUBITS, or n beyond it
                raise InputError(str(exc)) from None
            report = detector.exclusion_report(state, ZeroPolicy.canonical())
            formula = families.dicke_m_pb(n, e)
            claimed = (
                families.dicke_claimed_depth(n) if in_domain and n >= 3 and e == (n - 1) // 2 else None
            )
            rows.append(
                {
                    "n": n,
                    "e": e,
                    "m_pb_numeric": report.m_pb,
                    "m_pb_formula": formula,
                    "abs_diff": abs(report.m_pb - formula),
                    "formula_stated_domain": in_domain,
                    "genuine_multipartite": report.genuine_multipartite,
                    "entangled_subset_guarantee": report.entangled_subset_guarantee,
                    "balanced_depth_claim": claimed,
                }
            )
    if args.format == "json":
        print(render_json({"n_max": args.n_max, "policy": "canonical", "rows": rows}))
    elif args.format == "csv":
        header = list(rows[0].keys())
        _write_csv(header, [[r[h] for h in header] for r in rows])
    else:
        print("n  e   m_pb(numeric)        m_pb(formula)        |diff|    stated-domain genuine subset")
        for r in rows:
            print(
                f"{r['n']:<2} {r['e']:<3} {r['m_pb_numeric']:<20.15g} "
                f"{r['m_pb_formula']:<20.15g} {r['abs_diff']:<9.2e} "
                f"{str(r['formula_stated_domain']):<13} {str(r['genuine_multipartite']):<7} "
                f">={r['entangled_subset_guarantee']}"
                + (f"  balanced-depth-claim={r['balanced_depth_claim']}"
                   if r["balanced_depth_claim"] is not None else "")
            )
    return 0


# ---------------------------------------------------------------------------
# stress


def cmd_stress(args) -> int:
    from . import detector

    if not 2 <= args.n <= 10:
        raise InputError(f"--n must be in 2..10, got {args.n}")
    if args.trials < 1:
        raise InputError(f"--trials must be >= 1, got {args.trials}")
    try:
        summary = detector.monogamy_stress(args.n, args.trials, args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    fams = [
        (name, bound, getattr(summary, f"min_{name}_slack"))
        for name, bound in detector._monogamy_bounds(args.n).items()
    ]
    if args.format == "json":
        doc = {
            "n": summary.n,
            "trials": summary.trials,
            "seed": summary.seed,
            "families": {
                name: {"bound": bound, "min_slack": None if math.isinf(s) else s}
                for name, bound, s in fams
            },
            "max_pair_value": summary.max_pair_value,
            "violations": summary.violations,
        }
        print(render_json(doc))
    elif args.format == "csv":
        header = ["family", "bound", "min_slack", "violations"]
        rows = [
            [name, bound, None if math.isinf(s) else s, summary.violations] for name, bound, s in fams
        ]
        _write_csv(header, rows)
    else:
        print(f"monogamy stress: n={summary.n} trials={summary.trials} seed={summary.seed}")
        for name, bound, s in fams:
            slack = "n/a" if math.isinf(s) else _fmt(s)
            print(f"  {name:<9} bound {bound:g}   min slack {slack}")
        print(f"  max pairwise value observed: {_fmt(summary.max_pair_value)}")
        print(f"  violations beyond {detector._margin_text()}: {summary.violations}")
    return 1 if summary.violations else 0


# ---------------------------------------------------------------------------
# partitions


def cmd_partitions(args) -> int:
    if not 2 <= args.n <= 20:
        raise InputError(f"--n must be in 2..20, got {args.n}")
    if not math.isfinite(args.m_value):
        raise InputError(f"--m-value must be a finite number, got {args.m_value!r}")
    n, value = args.n, args.m_value
    table = [
        {"parts": list(parts), "k": len(parts), "bound": bound, "excluded": excluded}
        for parts, bound, excluded in partition_table(n, value)
    ]
    s_thr, gt, depth = _threshold_families(n)
    if args.format == "json":
        doc = {
            "n": n,
            "m_value": value,
            "partitions": table,
            "s_thresholds": {str(k): v for k, v in sorted(s_thr.items())},
            "genuine_threshold": gt,
            "depth_thresholds": {str(m): v for m, v in sorted(depth.items())},
        }
        print(render_json(doc))
    elif args.format == "csv":
        header = ["kind", "parts", "k_or_m", "bound", "verdict"]
        rows: list[list] = [
            [
                "partition",
                "+".join(str(r) for r in row["parts"]),
                row["k"],
                float(row["bound"]),
                "excluded" if row["excluded"] else "survives",
            ]
            for row in table
        ]
        thresholds = [("s_threshold", k, s) for k, s in sorted(s_thr.items())]
        thresholds += [("genuine_threshold", "", gt)] if gt is not None else []
        thresholds += [("depth_threshold", m, t) for m, t in sorted(depth.items())]
        for kind, k_or_m, t in thresholds:
            rows.append([kind, "", k_or_m, float(t), "exceeded" if _exceeds(value, t) else ""])
        _write_csv(header, rows)
    else:
        print(f"partitions of n={n} against value {_fmt(value)}:")
        for row in table:
            verdict = "excluded" if row["excluded"] else "survives"
            print(f"  {_parts_str(tuple(row['parts'])):<24} bound {row['bound']:<6g} {verdict}")
        if s_thr:
            print("k-product thresholds: " + "  ".join(f"s_{k}={v:g}" for k, v in sorted(s_thr.items())))
        if gt is not None:
            print(f"genuine-multipartite threshold: {gt:g}")
        if depth:
            print("depth thresholds: " + "  ".join(f"m={m}:{v:g}" for m, v in sorted(depth.items())))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entmon",
        description="Detect multipartite entanglement of pure qubit states from "
        "two-qubit correlations and monogamy bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full detection report for one state")
    p.add_argument("--state", help="path to a state JSON file")
    p.add_argument("--family", choices=["dicke", "ghz", "w", "plus", "plus-product"])
    p.add_argument("--n", type=int, help="qubit count for --family")
    p.add_argument("--e", type=int, help="excitation count (dicke family)")
    p.add_argument("--zero-policy", default="canonical",
                   help="canonical | axis=x,y,z | maximize[:samples]")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--seed", type=int, default=0, help="seed for the maximize policy")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep-dicke", help="numeric vs closed-form table for excitation families")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.set_defaults(func=cmd_sweep_dicke)

    p = sub.add_parser("stress", help="monogamy bounds on random states in random frames")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.set_defaults(func=cmd_stress)

    p = sub.add_parser("partitions", help="partition bounds and thresholds for a given value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-value", type=float, required=True)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.set_defaults(func=cmd_partitions)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
