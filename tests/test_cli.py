import contextlib
import csv
import errno
import io
import json
import signal
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmon import (
    exclusion_report,
    make_ghz,
    make_random_haar,
    state_from_json_dict,
    state_to_json_dict,
)
from entmon import cli, detector
from entmon.cli import InputError, main, parse_zero_policy, render_json
from entmon.frames import MAX_SAMPLES

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_render_json_is_plain_json():
    doc = {"a": 7.2, "b": [1, 2.5, None, True], "c": {"x": "s"}}
    text = render_json(doc)
    assert json.loads(text) == {"a": 7.2, "b": [1, 2.5, None, True], "c": {"x": "s"}}
    assert "7.2000000000000002" in text  # 17 significant digits


def test_parse_zero_policy():
    assert parse_zero_policy("canonical", 0).mode == "canonical"
    p = parse_zero_policy("axis=0,0,1", 0)
    assert p.mode == "axis" and p.axis == (0.0, 0.0, 1.0)
    p = parse_zero_policy("maximize:128", 9)
    assert p.mode == "maximize" and p.samples == 128 and p.seed == 9
    assert parse_zero_policy("maximize", 0).samples == 64
    from entmon.cli import InputError

    for bad in ("axis=1,2", "axis=a,b,c", "maximize:x", "nope"):
        with pytest.raises(InputError):
            parse_zero_policy(bad, 0)


def test_analyze_family_dicke_json(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--family", "dicke", "--n", "5", "--e", "2"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["m_pb"] == pytest.approx(7.2, abs=1e-9)
    assert doc["genuine_multipartite"] is True
    assert doc["surviving_partitions"] == [[5]]
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


def test_analyze_plus_family_alias(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--family", "plus", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["m_pb"] == pytest.approx(0.0, abs=1e-12)
    assert doc["excluded_partitions"] == []
    assert doc["genuine_multipartite"] is False


def test_analyze_state_file_bell(capsys, tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(state_to_json_dict(make_ghz(2))))
    code, out, _ = run_cli(capsys, "analyze", "--state", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["m_pb"] == pytest.approx(2.0, abs=1e-9)
    assert doc["thresholds"]["genuine"] is None

    code, out, _ = run_cli(capsys, "analyze", "--state", str(path), "--format", "text")
    assert code == 0
    assert "factorization residual" in out
    assert "require n >= 3" in out


def test_analyze_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "--state", "/nonexistent/state.json")
    assert code == 2 and "error:" in err


def test_analyze_invalid_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", "--state", str(path))
    assert code == 2 and "not valid JSON" in err


def test_analyze_norm_violation_exits_2(capsys, tmp_path):
    doc = state_to_json_dict(make_ghz(2))
    doc["amplitudes"] = [[a * 1.5, b] for a, b in doc["amplitudes"]]
    path = tmp_path / "bad_norm.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "analyze", "--state", str(path))
    assert code == 2 and "norm" in err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "null"])
def test_analyze_non_finite_amplitudes_exit_2(capsys, tmp_path, token):
    path = tmp_path / "state.json"
    path.write_text('{"n": 1, "amplitudes": [[%s, 0.0], [1.0, 0.0]]}' % token)
    code, out, err = run_cli(capsys, "analyze", "--state", str(path))
    assert code == 2 and out == "" and "amplitudes must be finite" in err


# state files the loader used to end in a traceback on, and the message each
# gets now
LOADER_ERROR_CASES = {
    "invalid UTF-8": (b'{"n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}\xff', "UTF-8"),
    "400-digit integer amplitude": (
        b'{"n": 1, "amplitudes": [[1' + b"0" * 399 + b', 0.0], [0.0, 0.0]]}',
        "finite",
    ),
    "n beyond the float range": (
        b'{"n": 1e400, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}',
        "qubit count must be an integer",
    ),
    "deep nesting": (b"[" * 100_000, "nested too deeply"),
}


@pytest.mark.parametrize("case", sorted(LOADER_ERROR_CASES))
def test_analyze_loader_errors_exit_2(capsys, tmp_path, case):
    data, message = LOADER_ERROR_CASES[case]
    path = tmp_path / "state.json"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "analyze", "--state", str(path))
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("seekable, failing_read", [(True, 2), (False, 1)])
def test_analyze_read_failure_exits_2(capsys, monkeypatch, seekable, failing_read):
    # a seekable file is read block by block inside the parse, so a read can
    # fail after the first block has been parsed
    data = json.dumps(state_to_json_dict(make_random_haar(12, 1))).encode()

    class FailingFile(io.BytesIO):
        reads = 0

        def seekable(self):
            return seekable

        def read(self, size=-1):
            self.reads += 1
            if self.reads == failing_read:
                raise OSError(errno.EIO, "Input/output error")
            return super().read(size)

    monkeypatch.setattr(cli, "open", lambda path, mode: FailingFile(data), raising=False)
    code, out, err = run_cli(capsys, "analyze", "--state", "state.json")
    assert code == 2 and out == ""
    assert "cannot read state file 'state.json'" in err and "Input/output error" in err


def test_analyze_haar_16_file_matches_general_path(capsys, tmp_path):
    text = json.dumps(state_to_json_dict(make_random_haar(16, 2024)))
    path = tmp_path / "haar16.json"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "analyze", "--state", str(path), "--format", "json")
    assert code == 0
    general = exclusion_report(state_from_json_dict(json.loads(text)))
    assert out == render_json(general.to_json_dict()) + "\n"


def test_analyze_one_qubit_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "analyze", "--family", "plus", "--n", "1")
    assert code == 2 and out == "" and "at least 2 qubits" in err
    path = tmp_path / "one_qubit.json"
    path.write_text('{"n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}')
    code, out, err = run_cli(capsys, "analyze", "--state", str(path), "--format", "text")
    assert code == 2 and out == "" and "at least 2 qubits" in err


def test_analyze_norm_within_renorm_band_warns_and_succeeds(capsys, tmp_path):
    doc = state_to_json_dict(make_ghz(2))
    doc["amplitudes"] = [[a * (1 + 2e-8), b] for a, b in doc["amplitudes"]]
    path = tmp_path / "slightly_off.json"
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="renormalizing"):
        code = main(["analyze", "--state", str(path)])
    assert code == 0


def test_analyze_family_validation_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "--family", "dicke", "--n", "3", "--e", "7")
    assert code == 2 and "excitation" in err
    code, _, err = run_cli(capsys, "analyze", "--family", "ghz", "--n", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "analyze")
    assert code == 2


@pytest.mark.parametrize(
    "policy_args",
    [
        ("--zero-policy", "axis=nan,0,0"),
        ("--zero-policy", "axis=inf,0,0"),
        ("--zero-policy", "axis=0,-inf,1"),
        ("--zero-policy", "maximize", "--seed", "-1"),
        ("--zero-policy", "maximize:8", "--seed", "-2"),
    ],
    ids=["axis nan", "axis inf", "axis -inf", "maximize seed -1", "maximize:8 seed -2"],
)
def test_analyze_bad_zero_policy_exits_2(capsys, policy_args):
    code, out, err = run_cli(capsys, "analyze", "--family", "ghz", "--n", "3", *policy_args)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_analyze_oversized_maximize_sample_count_exits_2(capsys):
    # NumPy refused the (samples, 3) draw of the search with a traceback
    args = ("analyze", "--family", "ghz", "--n", "3", "--zero-policy")
    code, out, err = run_cli(capsys, *args, "maximize:99999999999")
    assert code == 2 and out == ""
    assert err == f"error: sample count must be in 1..{MAX_SAMPLES}, got 99999999999\n"
    assert parse_zero_policy(f"maximize:{MAX_SAMPLES}", 0).samples == MAX_SAMPLES
    with pytest.raises(InputError, match="sample count"):
        parse_zero_policy(f"maximize:{MAX_SAMPLES + 1}", 0)


class Expired(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise Expired in the main thread after ``seconds``, so that a call
    that would enumerate 2**40 indices fails instead of hanging the run."""

    def expire(signum, frame):
        raise Expired(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize(
    "family", [["ghz"], ["plus"], ["w"], ["dicke", "--e", "20"]], ids=["ghz", "plus", "w", "dicke"]
)
def test_family_state_beyond_physical_memory_exits_2(capsys, monkeypatch, family):
    # 2**40 amplitudes are 16 TiB: the constructor refuses them before it
    # allocates the array or lists the basis indices of a Dicke state
    monkeypatch.setenv("ENTMON_MAX_QUBITS", "40")
    tracemalloc.start()
    try:
        with time_limit(1.0):
            code = main(["analyze", "--family", family[0], "--n", "40", *family[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: a 40-qubit state needs 1.638e+04 GiB of amplitudes")
    assert "physical memory" in err
    assert peak < 2**20


@pytest.mark.parametrize(
    "extreme, plain",
    [("axis=1e300,1e300,0", "axis=1,1,0"), ("axis=1e-320,0,0", "axis=1,0,0")],
)
def test_analyze_axis_policy_with_extreme_components(capsys, extreme, plain):
    # the axis is scaled by its largest component before normalizing, so huge
    # and subnormal components give the same document as plain ones
    args = ("analyze", "--family", "ghz", "--n", "3", "--zero-policy")
    code, out, err = run_cli(capsys, *args, extreme)
    assert code == 0 and err == ""
    _, want, _ = run_cli(capsys, *args, plain)
    assert out == want


def test_analyze_qubit_cap_env(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("ENTMON_MAX_QUBITS", "3")
    code, _, err = run_cli(capsys, "analyze", "--family", "ghz", "--n", "4")
    assert code == 2 and "cap" in err
    monkeypatch.setenv("ENTMON_MAX_QUBITS", "4")
    code, _, _ = run_cli(capsys, "analyze", "--family", "ghz", "--n", "4")
    assert code == 0


# the message each ENTMON_MAX_QUBITS value must exit 2 with; a cap of 3 is
# valid, and fails only a command that needs 4 qubits
CAP_ERRORS = {
    "abc": "ENTMON_MAX_QUBITS must be an integer, got 'abc'",
    "0": "ENTMON_MAX_QUBITS must be >= 1, got 0",
    "3": "qubit count 4 exceeds the cap of 3 (set ENTMON_MAX_QUBITS to raise it)",
}


@pytest.mark.parametrize("cap", ["abc", "0", "3"])
def test_sweep_dicke_qubit_cap_is_an_input_error(capsys, monkeypatch, cap):
    monkeypatch.setenv("ENTMON_MAX_QUBITS", cap)
    code, out, err = run_cli(capsys, "sweep-dicke", "--n-max", "5")
    assert (code, out, err) == (2, "", f"error: {CAP_ERRORS[cap]}\n")


@pytest.mark.parametrize("cap", ["abc", "0"])
def test_analyze_state_reports_a_bad_qubit_cap_as_itself(capsys, monkeypatch, tmp_path, cap):
    path = tmp_path / "ghz3.json"
    path.write_text(json.dumps(state_to_json_dict(make_ghz(3))))
    monkeypatch.setenv("ENTMON_MAX_QUBITS", cap)
    code, out, err = run_cli(capsys, "analyze", "--state", str(path))
    assert (code, out, err) == (2, "", f"error: {CAP_ERRORS[cap]}\n")


def test_analyze_json_deterministic(capsys):
    args = ("analyze", "--family", "ghz", "--n", "3", "--zero-policy", "maximize:32",
            "--seed", "7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_analyze_csv_has_header_row(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "dicke", "--n", "4", "--e", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    assert rows[0][0] == "n" and "m_pb" in rows[0]


def test_sweep_dicke_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep-dicke", "--n-max", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    idx = {name: header.index(name) for name in header}
    by_ne = {(int(r[idx["n"]]), int(r[idx["e"]])): r for r in body}
    row = by_ne[(5, 2)]
    assert float(row[idx["m_pb_numeric"]]) == pytest.approx(7.2, abs=1e-9)
    assert float(row[idx["m_pb_formula"]]) == pytest.approx(7.2, abs=1e-12)
    assert float(row[idx["abs_diff"]]) < 1e-9
    row = by_ne[(3, 0)]
    assert float(row[idx["m_pb_numeric"]]) == pytest.approx(0.0, abs=1e-12)
    assert float(row[idx["m_pb_formula"]]) == 0.0
    # balanced odd rows carry the claimed depth figure
    assert by_ne[(5, 2)][idx["balanced_depth_claim"]] == "4"
    # even rows are flagged outside the formula's stated domain
    assert by_ne[(4, 2)][idx["formula_stated_domain"]] == "False"


def test_sweep_dicke_includes_headline_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep-dicke", "--n-max", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = {(r["n"], r["e"]): r for r in doc["rows"]}
    assert rows[(3, 1)]["genuine_multipartite"] is True
    assert rows[(5, 2)]["genuine_multipartite"] is True
    assert rows[(7, 3)]["m_pb_numeric"] == pytest.approx(96 / 7, abs=1e-9)
    assert all(r["abs_diff"] < 1e-9 for r in doc["rows"])


def test_sweep_dicke_validation(capsys):
    code, _, err = run_cli(capsys, "sweep-dicke", "--n-max", "16")
    assert code == 2


def test_stress_json(capsys):
    code, out, _ = run_cli(
        capsys, "stress", "--n", "3", "--trials", "100", "--seed", "42"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0
    assert doc["trials"] == 100
    assert doc["max_pair_value"] <= 2 + 1e-9
    for family in ("pair", "two_term", "triple", "total"):
        assert family in doc["families"]
        assert doc["families"][family]["min_slack"] >= -1e-9


def test_stress_two_qubits(capsys):
    code, out, _ = run_cli(capsys, "stress", "--n", "2", "--trials", "50", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["families"]["two_term"]["min_slack"] is None
    assert doc["families"]["pair"]["bound"] == 2.0


def test_stress_validation(capsys):
    code, _, _ = run_cli(capsys, "stress", "--n", "11", "--trials", "5")
    assert code == 2
    code, _, _ = run_cli(capsys, "stress", "--n", "3", "--trials", "0")
    assert code == 2
    code, out, err = run_cli(capsys, "stress", "--n", "3", "--trials", "5", "--seed", "-3")
    assert code == 2 and out == "" and "seed" in err


def test_stress_deterministic(capsys):
    args = ("stress", "--n", "3", "--trials", "40", "--seed", "1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_stress_text_margin_follows_eps_det(capsys, monkeypatch):
    args = ("stress", "--n", "3", "--trials", "5", "--format", "text")
    _, out, _ = run_cli(capsys, *args)
    assert "  violations beyond -1e-9: 0\n" in out
    monkeypatch.setattr(detector, "EPS_DET", 2.5e-7)
    _, out, _ = run_cli(capsys, *args)
    assert "  violations beyond -2.5e-7: 0\n" in out


def test_partitions_d73_value(capsys):
    code, out, _ = run_cli(
        capsys, "partitions", "--n", "7", "--m-value", str(96 / 7)
    )
    assert code == 0
    doc = json.loads(out)
    surviving = [tuple(r["parts"]) for r in doc["partitions"] if not r["excluded"]]
    assert surviving == [(7,), (6, 1)]
    assert doc["s_thresholds"]["2"] == 15.0
    assert doc["depth_thresholds"]["2"] == 12.0


def test_partitions_all_excluded(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--n", "4", "--m-value", "4.5")
    assert code == 0
    doc = json.loads(out)
    surviving = [tuple(r["parts"]) for r in doc["partitions"] if not r["excluded"]]
    assert surviving == [(4,)]
    assert doc["genuine_threshold"] == 4.0


def test_partitions_zero_value_excludes_nothing(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--n", "5", "--m-value", "0")
    assert code == 0
    doc = json.loads(out)
    assert all(not r["excluded"] for r in doc["partitions"])


def test_partitions_csv(capsys):
    code, out, _ = run_cli(
        capsys, "partitions", "--n", "5", "--m-value", "6.5", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["kind", "parts", "k_or_m", "bound", "verdict"]
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {"partition", "s_threshold", "genuine_threshold", "depth_threshold"}


def test_partitions_validation(capsys):
    code, _, _ = run_cli(capsys, "partitions", "--n", "21", "--m-value", "1")
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_partitions_non_finite_value_exits_2(capsys, value):
    code, out, err = run_cli(capsys, "partitions", "--n", "5", f"--m-value={value}")
    assert code == 2 and out == "" and "finite" in err


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_partitions_output_matches_golden(capsys, fmt):
    code, out, _ = run_cli(
        capsys, "partitions", "--n", "7", "--m-value", "13.714", "--format", fmt
    )
    assert code == 0
    assert out == (DATA / f"partitions_n7_m13.714.{fmt}").read_text()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


FORMATS = st.sampled_from(["json", "csv", "text", "xml"])
SMALL = st.integers(-1, 8).map(str)
SEEDS = st.integers(-1, 3).map(str)
# each subcommand's options and the values drawn for them, the options it
# needs first; "--state" takes one of the files made by the fixture below
GRAMMAR = {
    "analyze": {
        "--state": st.sampled_from(["missing", "dir", "valid", "truncated"]),
        "--family": st.sampled_from(["dicke", "ghz", "w", "plus", "plus-product", "bell"]),
        "--n": SMALL,
        "--e": SMALL,
        "--zero-policy": st.sampled_from(
            ["canonical", "maximize:4", "maximize:0", "axis=0,0,1", "axis=0,0,0", "axis=1,2", "max"]
        ),
        "--format": FORMATS,
        "--seed": SEEDS,
    },
    "sweep-dicke": {"--n-max": st.integers(-1, 6).map(str), "--format": FORMATS},
    "stress": {
        "--n": SMALL,
        "--trials": st.integers(-1, 50).map(str),
        "--seed": SEEDS,
        "--format": FORMATS,
    },
    "partitions": {
        "--n": SMALL,
        "--m-value": st.sampled_from(["0", "3.5", "-1", "1e999", "nan", "-inf", "x"]),
        "--format": FORMATS,
    },
}
NEEDED = {
    "analyze": st.sampled_from([["--state"], ["--family", "--n"], []]),
    "sweep-dicke": st.just(["--n-max"]),
    "stress": st.just(["--n", "--trials"]),  # the default of 1000 trials takes seconds
    "partitions": st.just(["--n", "--m-value"]),
}
GARBAGE = st.sampled_from(["", "-", "--", "-h", "--bogus", "x", "-1", "1e999", "nan", "--n", "\x00", "\u00e9"])


@pytest.fixture(scope="module")
def fuzz_state_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    text = json.dumps(state_to_json_dict(make_ghz(3)))
    (root / "valid.json").write_text(text)
    (root / "truncated.json").write_text(text[: len(text) // 2])
    (root / "dir").mkdir()
    names = {"missing": "missing.json", "dir": "dir", "valid": "valid.json", "truncated": "truncated.json"}
    return {key: str(root / name) for key, name in names.items()}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    options = GRAMMAR[command]
    argv = [command]
    flags = draw(NEEDED[command]) + draw(st.lists(st.sampled_from(sorted(options)), max_size=3))
    for flag in flags:
        value = draw(options[flag])
        argv += [flag, value]
    # most argvs are well formed, so that the commands run
    if draw(st.integers(0, 3)) == 0:
        for token in draw(st.lists(GARBAGE, min_size=1, max_size=2)):
            argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


# about 1.5 s on a 2-core Xeon
@settings(max_examples=200, deadline=None)
@given(argv=argvs())
@example(argv=["analyze", "--family", "ghz", "--n", "3", "--zero-policy", "maximize:99999999999"])
def test_cli_argv_fuzz_exits_cleanly(fuzz_state_files, argv):
    # the --state values name the fixture's files; no other token is one
    argv = [fuzz_state_files.get(token, token) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv, or -h
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
