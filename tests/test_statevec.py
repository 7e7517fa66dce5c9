import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmon import statevec as sv

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_basis_state_examples():
    assert np.allclose(sv.make_basis_state(1, "0").amplitudes, [1, 0])
    s = sv.make_basis_state(2, "10")
    assert s.amplitudes[2] == 1 and np.count_nonzero(s.amplitudes) == 1
    s = sv.make_basis_state(3, "111")
    assert s.amplitudes[7] == 1 and np.count_nonzero(s.amplitudes) == 1


def test_basis_state_rejects_bad_bits():
    with pytest.raises(ValueError):
        sv.make_basis_state(3, "01")
    with pytest.raises(ValueError):
        sv.make_basis_state(2, "0x")


def test_dicke_w_state():
    w = sv.make_dicke(3, 1)
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1 / math.sqrt(3)
    assert np.allclose(w.amplitudes, expected)


def test_dicke_edges():
    assert np.allclose(sv.make_dicke(4, 0).amplitudes, sv.make_basis_state(4, "0000").amplitudes)
    assert np.allclose(sv.make_dicke(3, 3).amplitudes, sv.make_basis_state(3, "111").amplitudes)
    d = sv.make_dicke(4, 2)
    nz = np.flatnonzero(d.amplitudes)
    assert list(nz) == [3, 5, 6, 9, 10, 12]
    assert np.allclose(d.amplitudes[nz], 1 / math.sqrt(6))
    with pytest.raises(ValueError):
        sv.make_dicke(3, 4)
    with pytest.raises(ValueError):
        sv.make_dicke(3, -1)


def test_ghz():
    g = sv.make_ghz(2)
    assert np.allclose(g.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    for n in (3, 5):
        g = sv.make_ghz(n)
        assert np.isclose(g.amplitudes[0], 1 / math.sqrt(2))
        assert np.isclose(g.amplitudes[-1], 1 / math.sqrt(2))
        assert np.count_nonzero(g.amplitudes) == 2
    with pytest.raises(ValueError):
        sv.make_ghz(1)


def test_plus_product():
    assert np.allclose(sv.make_plus_product(1).amplitudes, [1 / math.sqrt(2)] * 2)
    assert np.allclose(sv.make_plus_product(2).amplitudes, [0.5] * 4)
    assert np.allclose(sv.make_plus_product(3).amplitudes, [1 / (2 * math.sqrt(2))] * 8)


def test_haar_deterministic():
    a = sv.make_random_haar(3, 123)
    b = sv.make_random_haar(3, 123)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = sv.make_random_haar(3, 124)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_haar_normalized():
    for seed in range(5):
        s = sv.make_random_haar(3, seed)
        assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1) < 1e-12


def test_haar_draw_is_the_summed_normal_draws():
    # the draws are written into one complex array; the amplitudes must keep
    # the bytes of standard_normal + 1j * standard_normal, normalized
    for n in range(1, 17):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            z /= np.linalg.norm(z)
            assert sv.make_random_haar(n, seed).amplitudes.tobytes() == z.tobytes(), (n, seed)


def test_haar_draw_peaks_near_one_and_a_half_states():
    # the state plus one float draw; the summed draws peak at about 2.1 states
    n = 16
    sv.make_random_haar(n, 3)
    tracemalloc.start()
    try:
        sv.make_random_haar(n, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**n * 16 + 2**16


def test_haar_first_amplitude_mean():
    # |a_0|^2 averages to 1/4 on two qubits; check within 3 standard errors
    draws = np.array(
        [abs(sv.make_random_haar(2, seed).amplitudes[0]) ** 2 for seed in range(10_000)]
    )
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 0.25) < 3 * se


def test_tensor_product_examples():
    s = sv.tensor_product(sv.make_basis_state(1, "0"), sv.make_basis_state(1, "1"))
    assert np.allclose(s.amplitudes, sv.make_basis_state(2, "01").amplitudes)
    pp = sv.tensor_product(sv.make_plus_product(1), sv.make_plus_product(1))
    assert np.allclose(pp.amplitudes, sv.make_plus_product(2).amplitudes)
    s = sv.tensor_product(sv.make_dicke(2, 1), sv.make_basis_state(1, "0"))
    expected = np.zeros(8)
    expected[[2, 4]] = 1 / math.sqrt(2)
    assert np.allclose(s.amplitudes, expected)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_tensor_product_associative(s1, s2, s3):
    a = sv.make_random_haar(1, s1)
    b = sv.make_random_haar(2, s2)
    c = sv.make_random_haar(1, s3)
    left = sv.tensor_product(sv.tensor_product(a, b), c)
    right = sv.tensor_product(a, sv.tensor_product(b, c))
    assert np.max(np.abs(left.amplitudes - right.amplitudes)) < 1e-12


def test_apply_local_unitary_examples():
    zero = sv.make_basis_state(1, "0")
    assert np.allclose(sv.apply_local_unitary(zero, 0, np.eye(2)).amplitudes, zero.amplitudes)
    assert np.allclose(
        sv.apply_local_unitary(zero, 0, H).amplitudes, sv.make_plus_product(1).amplitudes
    )
    flipped = sv.apply_local_unitary(sv.make_ghz(3), 1, SX)
    expected = np.zeros(8)
    expected[[2, 5]] = 1 / math.sqrt(2)
    assert np.allclose(flipped.amplitudes, expected)


def test_apply_local_unitary_rejects():
    s = sv.make_ghz(2)
    with pytest.raises(ValueError):
        sv.apply_local_unitary(s, 2, np.eye(2))
    with pytest.raises(ValueError):
        sv.apply_local_unitary(s, 0, np.array([[1, 1], [0, 1]], dtype=complex))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_apply_local_unitary_commutes_on_distinct_qubits(seed):
    rng = np.random.default_rng(seed)
    state = sv.make_random_haar(3, seed)

    def random_unitary():
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(z)
        return q

    U, V = random_unitary(), random_unitary()
    ij = sv.apply_local_unitary(sv.apply_local_unitary(state, 0, U), 2, V)
    ji = sv.apply_local_unitary(sv.apply_local_unitary(state, 2, V), 0, U)
    assert np.max(np.abs(ij.amplitudes - ji.amplitudes)) < 1e-12


def test_norm_preserved_by_unitaries():
    state = sv.make_random_haar(4, 7)
    for qubit in range(4):
        state = sv.apply_local_unitary(state, qubit, H)
    assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1) < 1e-12


def test_dicke_extremes_match_named_states():
    for n in (2, 4, 6):
        w = sv.make_dicke(n, 1)
        expected = np.zeros(2**n)
        expected[[2**k for k in range(n)]] = 1 / math.sqrt(n)
        assert np.allclose(w.amplitudes, expected)
        assert np.allclose(
            sv.make_dicke(n, n).amplitudes, sv.make_basis_state(n, "1" * n).amplitudes
        )


def test_states_immutable():
    s = sv.make_ghz(2)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_constructor_copies_the_callers_array():
    amps = np.array([1.0, 0.0], dtype=np.complex128)
    state = sv.PureState(1, amps)
    amps[:] = [0.0, 1.0]
    assert state.amplitudes.tolist() == [1.0, 0.0]
    assert not np.shares_memory(state.amplitudes, amps)


def test_loaded_and_haar_states_are_read_only():
    doc = sv.state_to_json_dict(sv.make_random_haar(3, 4))
    states = [
        sv.make_random_haar(3, 4),
        sv.state_from_json_dict(doc),
        sv.state_from_json_bytes(json.dumps(doc).encode()),
        sv.state_from_json_bytes(json.dumps(doc, indent=1, sort_keys=True).encode()),
    ]
    for state in states:
        arrays = [state.amplitudes]
        if state.amplitudes.base is not None:
            arrays.append(state.amplitudes.base)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_rejects_unnormalized_direct_construction():
    with pytest.raises(ValueError):
        sv.PureState(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        sv.PureState(2, np.array([1.0, 0.0]))


def test_qubit_cap(monkeypatch):
    monkeypatch.setenv(sv.MAX_QUBITS_ENV, "3")
    with pytest.raises(ValueError, match="cap"):
        sv.make_plus_product(4)
    assert sv.make_plus_product(3).n == 3
    monkeypatch.setenv(sv.MAX_QUBITS_ENV, "4")
    assert sv.make_plus_product(4).n == 4
    monkeypatch.setenv(sv.MAX_QUBITS_ENV, "zero")
    with pytest.raises(ValueError):
        sv.make_plus_product(2)


def test_state_json_round_trip():
    state = sv.make_random_haar(3, 99)
    again = sv.state_from_json_dict(sv.state_to_json_dict(state))
    assert np.max(np.abs(again.amplitudes - state.amplitudes)) < 1e-12


def test_state_json_norm_policy():
    good = sv.state_to_json_dict(sv.make_ghz(2))

    slightly_off = {"n": 2, "amplitudes": [[a * (1 + 5e-8), b] for a, b in good["amplitudes"]]}
    with pytest.warns(UserWarning, match="renormalizing"):
        state = sv.state_from_json_dict(slightly_off)
    assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1) < 1e-12

    badly_off = {"n": 2, "amplitudes": [[a * 1.5, b] for a, b in good["amplitudes"]]}
    with pytest.raises(ValueError, match="norm"):
        sv.state_from_json_dict(badly_off)


def test_state_json_shape_validation():
    with pytest.raises(ValueError):
        sv.state_from_json_dict({"n": 2, "amplitudes": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        sv.state_from_json_dict({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ValueError):
        sv.state_from_json_dict({"n": 1, "amplitudes": [[1.0], [0.0]]})
    with pytest.raises(ValueError):
        sv.state_from_json_dict([1, 2])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="finite"):
        sv.PureState(1, np.array([bad, 0.0]))


PAIRS_ERROR = "number pairs"

# JSON-shaped amplitude lists for n = 1 and the outcome the loader gives them:
# a normalized state, or the error message it raises
AMPLITUDE_CASES = {
    "ragged": ([[1.0, 0.0], [0.0]], PAIRS_ERROR),
    "one-element pairs": ([[1.0], [0.0]], PAIRS_ERROR),
    "three-element pairs": ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], PAIRS_ERROR),
    "numeric strings": ([["1.0", "0"], ["0", "0"]], [1.0, 0.0]),
    "word strings": ([["one", "0"], ["0", "0"]], PAIRS_ERROR),
    "strings as pairs": (["10", "00"], PAIRS_ERROR),
    "nested inside a pair": ([[[1.0], 0.0], [0.0, 0.0]], PAIRS_ERROR),
    "nested pairs": ([[[1.0, 0.0]], [[0.0, 0.0]]], PAIRS_ERROR),
    "bools": ([[True, False], [False, False]], [1.0, 0.0]),
    "objects as pairs": ([{"1": 0, "0": 0}, {"0": 0, "1": 1}], PAIRS_ERROR),
    "bare numbers": ([1.0, 0.0], PAIRS_ERROR),
    "tuples": ([(0.6, 0.0), (0.0, 0.8)], [0.6, 0.8j]),
    "NaN": ([[math.nan, 0.0], [1.0, 0.0]], "finite"),
    "Infinity": ([[math.inf, 0.0], [1.0, 0.0]], "finite"),
    "null": ([[None, 0.0], [1.0, 0.0]], "finite"),
    "400-digit integer": ([[10**399, 0.0], [1.0, 0.0]], "finite"),
}


@pytest.mark.parametrize("case", sorted(AMPLITUDE_CASES))
def test_state_json_amplitude_forms(case):
    amplitudes, outcome = AMPLITUDE_CASES[case]
    obj = {"n": 1, "amplitudes": amplitudes}
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            sv.state_from_json_dict(obj)
    else:
        state = sv.state_from_json_dict(obj)
        assert np.array_equal(state.amplitudes, np.array(outcome, dtype=complex))


# values of the "n" field for a two-qubit |00> file and the outcome: the
# qubit count read, or the error message
QUBIT_COUNT_CASES = {
    "int": (2, 2),
    "integral float": (2.0, 2),
    "numeric string": ("2", 2),
    "fractional float": (2.9, "must be an integer"),
    "true": (True, "must be an integer"),
    "false": (False, "must be an integer"),
    "infinite float": (math.inf, "must be an integer"),
    "NaN": (math.nan, "must be an integer"),
    "word string": ("two", "malformed"),
    "null": (None, "malformed"),
}


@pytest.mark.parametrize("case", sorted(QUBIT_COUNT_CASES))
def test_state_json_qubit_count_forms(case):
    value, outcome = QUBIT_COUNT_CASES[case]
    obj = {"n": value, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            sv.state_from_json_dict(obj)
    else:
        assert sv.state_from_json_dict(obj).n == outcome
