"""state_from_json_bytes against the general reader it must agree with.

The reference is ``state_from_json_dict(json.loads(text))``: on every
document both either return bit-identical amplitudes or raise the same
message. The layout entmon writes must also take the chunked path, or the
agreement would hold trivially.
"""
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entmon
from entmon import detector
from entmon import statevec as sv
from entmon.cli import _load_state_file, main
from entmon.families import dicke_m_pb

WHITESPACE = ["", " ", "  ", "\n", "\n  ", "\t", "\r\n"]


def outcome(read, data: bytes):
    """('ok', n, amplitude bits, warning messages) or ('error', message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            state = read(data)
        except ValueError as exc:
            return ("error", str(exc))
    bits = state.amplitudes.view(np.uint64).tobytes()
    return ("ok", state.n, bits, [str(w.message) for w in caught])


def general(data: bytes):
    return sv.state_from_json_dict(json.loads(data.decode("utf-8")))


def block_reader(data: bytes):
    """The block reader over consecutive slices of ``data``: n and the
    re/im values, or None where it declines the document."""
    size = sv._CHUNK_BYTES
    return sv._flat_from_blocks((data[i:i + size] for i in range(0, len(data), size)), len(data))


def assert_paths_agree(data: bytes):
    assert outcome(sv.state_from_json_bytes, data) == outcome(general, data)
    # where the block reader accepts, its values before normalization carry
    # json's bits, so a state rejected for its norm hides no parse difference
    parsed = block_reader(data)
    if parsed is not None:
        n, flat = sv._flat_from_dict(json.loads(data.decode("utf-8")))
        assert parsed[0] == n and parsed[1].view(np.uint64).tolist() == flat.view(np.uint64).tolist()


def number_forms(x: float) -> st.SearchStrategy[str]:
    forms = [repr(x), format(x, ".17e"), format(x, ".17E"), format(x, ".16e"),
             format(x, ".20e"), format(x, ".25g")]
    if x.is_integer():
        forms.append(str(int(x)))
    if x == 0.0:
        forms += ["-0", "0", "-0.0", "0e5", "-0E-3"]
    return st.sampled_from(forms)


@st.composite
def state_values(draw):
    """(n, [re, im, ...]) for a Haar, basis or slightly denormalized state."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["haar", "basis", "rounded"]))
    if kind == "basis":
        amps = sv.make_basis_state(n, format(draw(st.integers(0, 2**n - 1)), f"0{n}b")).amplitudes
    else:
        amps = sv.make_random_haar(n, draw(st.integers(0, 2**32 - 1))).amplitudes
    values = [float(v) for v in amps.view(np.float64)]
    if kind == "rounded":
        digits = draw(st.sampled_from([".4g", ".8g", ".12g"]))
        values = [float(format(v, digits)) for v in values]
    return n, values


@st.composite
def entmon_layout(draw, values=state_values()):
    """{"n": n, "amplitudes": [...]} with varied number forms and whitespace."""
    n, flat = draw(values)
    ws = lambda: draw(st.sampled_from(WHITESPACE))  # noqa: E731
    pairs = []
    for re_, im in zip(flat[::2], flat[1::2]):
        a, b = draw(number_forms(re_)), draw(number_forms(im))
        pairs.append(f"{ws()}[{ws()}{a}{ws()},{ws()}{b}{ws()}]{ws()}")
    return (
        f'{ws()}{{{ws()}"n"{ws()}:{ws()}{n}{ws()},{ws()}"amplitudes"{ws()}:{ws()}'
        f'[{",".join(pairs)}]{ws()}}}{ws()}'
    ).encode()


@settings(max_examples=150, deadline=None)
@given(entmon_layout())
def test_entmon_layout_takes_chunked_path_and_matches(data):
    assert block_reader(data) is not None
    assert_paths_agree(data)


@settings(max_examples=60, deadline=None)
@given(state_values(), st.sampled_from(["compact", "default", "indent", "reordered", "extra"]))
def test_json_dumps_forms_match(values, form):
    n, flat = values
    obj = {"n": n, "amplitudes": [list(p) for p in zip(flat[::2], flat[1::2])]}
    if form == "compact":
        text = json.dumps(obj, separators=(",", ":"))
    elif form == "indent":
        text = json.dumps(obj, indent=2)
    elif form == "reordered":
        text = json.dumps({"amplitudes": obj["amplitudes"], "n": n})
    elif form == "extra":
        text = json.dumps({**obj, "label": "haar", "seed": 3})
    else:
        text = json.dumps(obj)
    data = text.encode()
    chunked = block_reader(data) is not None
    assert chunked == (form in ("compact", "default", "indent"))
    assert_paths_agree(data)


def test_chunked_path_spans_many_chunks():
    # 2**12 pairs of about 40 bytes fill several chunks
    state = sv.make_random_haar(12, 5)
    data = json.dumps(sv.state_to_json_dict(state)).encode()
    assert len(data) > 2 * sv._CHUNK_BYTES
    assert block_reader(data) is not None
    assert_paths_agree(data)


MUTATION_BYTES = st.sampled_from(list(b"0123456789+-.eE[],:{}\" \t\n\rxaN"))
NUMBER = re.compile(rb"-?[0-9][0-9.eE+-]*")
# numbers that a parser rounding differently from json would read otherwise:
# each must make the block reader decline or give json's bits
EDGE_NUMBERS = [
    "-0",
    "-0.0",
    "9007199254740993",  # 2**53 + 1, a tie between two doubles
    "18446744073709551616",  # 2**64, beyond every 64-bit integer
    "123456789012345678901234567890",
    "2.4703282292062328e-324",  # rounds up to 5e-324
    "2.4703282292062327e-324",  # rounds down to 0
    "1.7976931348623158e308",  # rounds to the largest double
    "1.7976931348623159e308",  # overflows to inf
    "1e400",
    "1" + "0" * 399,
    # 60 digits just above 1 + 2**-53, the tie between 1 and the next double
    "1.00000000000000011102230246251565404236316680908203125000001",
]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["delete", "insert", "replace", "number"]),
    st.integers(0, 10**6),
    MUTATION_BYTES,
    st.sampled_from(EDGE_NUMBERS),
)
def test_mutated_amplitude_array_agrees(n, seed, op, where, byte, number):
    text = json.dumps(sv.state_to_json_dict(sv.make_random_haar(n, seed)))
    start, stop = text.index("["), text.rindex("]") + 1
    pos = start + where % (stop - start)
    data = bytearray(text.encode())
    if op == "delete":
        del data[pos]
    elif op == "insert":
        data.insert(pos, byte)
    elif op == "replace":
        data[pos] = byte
    else:
        numbers = list(NUMBER.finditer(data, start, stop))
        hit = numbers[where % len(numbers)]
        data[hit.start():hit.end()] = number.encode()
    assert_paths_agree(bytes(data))


# every edge number, not only those Hypothesis happens to draw
for _number in EDGE_NUMBERS:
    test_mutated_amplitude_array_agrees = example(1, 0, "number", 0, ord("0"), _number)(
        test_mutated_amplitude_array_agrees
    )


# documents close to the entmon layout that the chunked reader must decline
NEAR_MISSES = {
    # a stray number next to a bracket must not merge with its neighbour
    "number after a pair": '{"n": 1, "amplitudes": [[1,0]0,[0,0]]}',
    "number before a pair": '{"n": 1, "amplitudes": [[1,0],0[0,0]]}',
    "number after the opening bracket": '{"n": 1, "amplitudes": [1[1,0],[0,0]]}',
    "number before the closing bracket": '{"n": 1, "amplitudes": [[1,0],[0,0]0]}',
    "number after the array": '{"n": 1, "amplitudes": [[1,0],[0,0]]0}',
    "number after the object": '{"n": 1, "amplitudes": [[1,0],[0,0]]} 0',
    "missing comma in a pair": '{"n": 1, "amplitudes": [[1 0],[0,0]]}',
    "duplicate key": '{"n": 1, "amplitudes": [[1,0],[0,0]], "amplitudes": [[0,0],[1,0]]}',
    "leading zero": '{"n": 1, "amplitudes": [[01,0],[0,0]]}',
    "plus sign": '{"n": 1, "amplitudes": [[+1,0],[0,0]]}',
    "bare point": '{"n": 1, "amplitudes": [[1.,0],[0,0]]}',
    "400-digit integer": '{"n": 1, "amplitudes": [[1%s,0],[0,0]]}' % ("0" * 400),
    "leading zero in n": '{"n": 01, "amplitudes": [[1,0],[0,0]]}',
    "negative n": '{"n": -1, "amplitudes": [[1,0],[0,0]]}',
    "zero n": '{"n": 0, "amplitudes": []}',
    "byte order mark": '\ufeff{"n": 1, "amplitudes": [[1,0],[0,0]]}',
    "form feed": '{"n": 1, "amplitudes": [[1,0],[0,0]]}\f',
}


@pytest.mark.parametrize("case", sorted(NEAR_MISSES))
def test_near_miss_layouts_agree(case):
    data = NEAR_MISSES[case].encode()
    assert block_reader(data) is None
    assert_paths_agree(data)


def test_claimed_large_n_rejected_without_allocating(monkeypatch):
    monkeypatch.setenv(sv.MAX_QUBITS_ENV, "30")
    docs = [
        b'{"n": 30, "amplitudes": [[1, 0]]}',
        b'{"n": 30, "amplitudes": [' + b"[0, 0], " * 10_000 + b"[1, 0]]}",
    ]
    for data in docs:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"2\*\*30"):
                sv.state_from_json_bytes(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_file_load_peaks_near_one_state(tmp_path):
    # the file is read in blocks into the one array the state keeps, so the
    # peak is that state (1 MiB at n = 16) plus a block's worth of parsing;
    # holding the 3.2 MB file and three copies of the state peaks at 6 MiB
    n = 16
    path = tmp_path / "haar16.json"
    path.write_text(json.dumps(sv.state_to_json_dict(sv.make_random_haar(n, 8))))
    tracemalloc.start()
    try:
        state = _load_state_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.n == n
    assert peak < 1.25 * 2**n * 16 + 2**20


def test_state_keeps_the_loaded_or_drawn_array():
    # one extra copy of the state would still fit under the bound above
    flat = np.array([0.6, 0.0, 0.0, 0.8])
    assert np.shares_memory(sv._state_from_flat(1, flat).amplitudes, flat)
    z = np.array([3.0, 4.0j])
    assert np.shares_memory(sv._normalized(1, z).amplitudes, z)


def test_unseekable_file_takes_the_bytes_path():
    data = json.dumps(sv.state_to_json_dict(sv.make_random_haar(3, 6))).encode()
    read_end, write_end = os.pipe()
    with open(write_end, "wb") as out:
        out.write(data)
    with open(read_end, "rb") as fh:
        assert not fh.seekable()
        state = sv._state_from_json_file(fh)
    assert state.amplitudes.tobytes() == sv.state_from_json_bytes(data).amplitudes.tobytes()


def test_overflowing_number_on_chunked_path_is_not_finite():
    # orjson refuses a number that overflows, so the block reader declines
    # and the general path gives the message
    data = b'{"n": 1, "amplitudes": [[1e999, 0], [0, 0]]}'
    assert block_reader(data) is None
    with pytest.raises(ValueError, match="finite"):
        sv.state_from_json_bytes(data)


def run_probe(probe: str, *args: str) -> list[str]:
    """The words a fresh interpreter prints running ``probe`` with this
    checkout's entmon."""
    src = os.path.dirname(os.path.dirname(sv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", probe, *args], check=True, capture_output=True, text=True, env=env, timeout=60,
    )
    return out.stdout.split()


def test_orjson_is_imported_only_to_read_a_state_file(tmp_path):
    # the benchmark's set-up probe loads no state, so it must not pay for
    # orjson's import; the block reader must still use it
    path = tmp_path / "w3.json"
    path.write_text(json.dumps(sv.state_to_json_dict(sv.make_dicke(3, 1))))
    probe = (
        "import sys\n"
        "import entmon, entmon.cli\n"
        "entmon.cli.build_parser()\n"
        "print('orjson' in sys.modules)\n"
        "entmon.cli._load_state_file(sys.argv[1])\n"
        "print('orjson' in sys.modules)\n"
    )
    assert run_probe(probe, str(path)) == ["False", "True"]


def test_numpy_is_imported_only_to_compute():
    # the package, the parser, usage errors and the partition table are pure
    # Python, and load neither NumPy nor dataclasses (whose import of inspect
    # costs about a sixth of the start); the first numeric name loads both
    probe = (
        "import contextlib, io, sys\n"
        "def loaded():\n"
        "    print(','.join(m for m in ('numpy', 'dataclasses') if m in sys.modules) or '-')\n"
        "import entmon, entmon.cli\n"
        "loaded()\n"
        "entmon.cli.build_parser()\n"
        "loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    entmon.cli.main(['partitions', '--n', '7', '--m-value', '13.714', '--format', 'json'])\n"
        "loaded()\n"
        "for argv in (['--help'], ['partitions', '--n', 'seven']):\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "            entmon.cli.main(argv)\n"
        "    except SystemExit:\n"
        "        pass\n"
        "    loaded()\n"
        "entmon.make_ghz\n"
        "loaded()\n"
    )
    assert run_probe(probe) == ["-"] * 5 + ["numpy,dataclasses"]


def test_package_names_resolve_to_their_defining_modules(monkeypatch):
    for name in entmon.__all__:
        module = importlib.import_module(f"entmon.{entmon._EXPORTS[name]}")
        obj = getattr(entmon, name)
        assert obj is getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__
    assert len(entmon.__all__) == 49
    assert set(entmon.__all__) <= set(dir(entmon))
    with pytest.raises(AttributeError, match="no_such_name"):
        entmon.no_such_name  # noqa: B018
    # resolved on every access, so a patch of the module is seen through it
    spy = object()
    monkeypatch.setattr(detector, "exclusion_report", spy)
    assert entmon.exclusion_report is spy


def test_submodule_resolves_without_a_prior_import():
    probe = "import entmon\nprint(entmon.detector.__name__, entmon.families.__name__)\n"
    assert run_probe(probe) == ["entmon.detector", "entmon.families"]


@pytest.mark.parametrize("n, e", [(16, 1), (16, 5), (16, 8), (17, 6), (18, 1), (18, 9)])
def test_dicke_file_m_pb_matches_the_closed_form(n, e, tmp_path, capsys):
    # many equal amplitudes: an in-order norm drifts with their count (the
    # Dicke(16, 8) file read 5.9e-12 off, Dicke(18, 9) 3.8e-11)
    path = tmp_path / f"dicke-{n}-{e}.json"
    path.write_text(json.dumps(sv.state_to_json_dict(sv.make_dicke(n, e))))
    assert main(["analyze", "--state", str(path)]) == 0
    value = json.loads(capsys.readouterr().out)["m_pb"]
    assert abs(value - dicke_m_pb(n, e)) <= 1e-13


def test_renormalization_warning_on_chunked_path():
    values = [1 + 5e-8, 0.0, 0.0, 0.0]
    data = json.dumps({"n": 1, "amplitudes": [values[:2], values[2:]]}).encode()
    assert block_reader(data) is not None
    with pytest.warns(UserWarning, match="renormalizing"):
        state = sv.state_from_json_bytes(data)
    assert math.isclose(abs(state.amplitudes[0]), 1.0, abs_tol=1e-15)


@pytest.mark.parametrize("separators", [(", ", ": "), (" ,\n ", " : ")])
def test_block_ends_at_every_offset_of_a_pair(monkeypatch, separators):
    # 128-byte blocks hold about two pairs; shifting the document by leading
    # whitespace makes some block end at every byte of a pair and its
    # separator, between a ] and its , too
    monkeypatch.setattr(sv, "_CHUNK_BYTES", 128)
    doc = json.dumps(sv.state_to_json_dict(sv.make_random_haar(4, 9)), separators=separators)
    for shift in range(64):
        data = (" " * shift + doc).encode()
        assert block_reader(data) is not None
        assert_paths_agree(data)


def test_a_valid_load_checks_finiteness_once(tmp_path, monkeypatch):
    # the load checks the re/im values; the state it builds then relies on
    # its finite norm, which is finite exactly when every amplitude is
    n = 8
    state = sv.make_random_haar(n, 4)
    path = tmp_path / "haar8.json"
    path.write_text(json.dumps(sv.state_to_json_dict(state)))
    sizes = []
    isfinite = np.isfinite

    def spy(x, *args, **kwargs):
        sizes.append(np.size(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", spy)
    loaded = _load_state_file(str(path))
    assert np.array_equal(loaded.amplitudes, state.amplitudes)
    assert sizes == [2 ** (n + 1)]
    sv.PureState(n, state.amplitudes)
    assert sizes == [2 ** (n + 1)]
    # a non-finite norm takes the elementwise check, to name the fault
    with pytest.raises(ValueError, match="finite"):
        sv.PureState(1, np.array([math.nan, 1.0]))
    assert sizes[-1] == 2
