"""The one-pass marginals kernel against the per-pair reductions, the
full-operator oracle, and the detector outputs it feeds."""
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import entmon.detector as detector
import entmon.tensor as tensor
from entmon import (
    apply_local_unitary,
    bloch_vector,
    correlation_component,
    m_pb,
    make_basis_state,
    make_dicke,
    make_ghz,
    make_random_haar,
    monogamy_stress,
    pair_block,
    random_rotation,
    reduced_density_pair,
    reduced_density_single,
    state_to_json_dict,
    tensor_product,
)
from entmon.cli import main, render_json
from entmon.statevec import PureState
from entmon.tensor import marginals
from lu_oracles import su2_from_rotation


def random_product(n: int, seed: int) -> PureState:
    state = make_random_haar(1, seed)
    for q in range(1, n):
        state = tensor_product(state, make_random_haar(1, seed + q))
    return state


def rotated_ghz(n: int, seed: int) -> PureState:
    rng = np.random.default_rng(seed)
    state = make_ghz(n)
    for q in range(n):
        state = apply_local_unitary(state, q, su2_from_rotation(random_rotation(rng)))
    return state


def fixtures(n: int) -> dict[str, PureState]:
    return {
        "basis": make_basis_state(n, "".join("01"[q % 2] for q in range(n))),
        "product": random_product(n, 40 + n),
        "ghz": make_ghz(n),
        "w": make_dicke(n, 1),
        "dicke": make_dicke(n, n // 2),
        "haar": make_random_haar(n, 500 + n),
        "rotated-ghz": rotated_ghz(n, 900 + n),
    }


def reference_marginals(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors and symmetric blocks from the per-qubit and per-pair
    reductions, one 2**n reduction per marginal."""
    n = state.n
    bloch = np.array([bloch_vector(reduced_density_single(state, k)) for k in range(n)])
    blocks = np.zeros((n, n, 3, 3))
    for k, l in itertools.combinations(range(n), 2):
        blocks[k, l] = pair_block(reduced_density_pair(state, k, l))
        blocks[l, k] = blocks[k, l].T
    return bloch, blocks


def oracle_entry(state: PureState, marks: dict[int, int]) -> float:
    mu = [0] * state.n
    for q, i in marks.items():
        mu[q] = i + 1
    return correlation_component(state, mu)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_kernel_matches_oracle(n):
    for name, state in fixtures(n).items():
        bloch, blocks = marginals(state)
        for k in range(n):
            for i in range(3):
                assert abs(bloch[k, i] - oracle_entry(state, {k: i})) < 1e-10, (name, k, i)
        for k, l in itertools.permutations(range(n), 2):
            for i, j in itertools.product(range(3), repeat=2):
                want = oracle_entry(state, {k: i, l: j})
                assert abs(blocks[k, l, i, j] - want) < 1e-10, (name, k, l, i, j)


def test_kernel_matches_oracle_at_ten_qubits():
    n = 10
    state = make_random_haar(n, 1010)
    bloch, blocks = marginals(state)
    for k in range(n):
        for i in range(3):
            assert abs(bloch[k, i] - oracle_entry(state, {k: i})) < 1e-10
    for k, l in ((0, 1), (0, 9), (4, 5), (8, 9)):
        for i, j in itertools.product(range(3), repeat=2):
            assert abs(blocks[k, l, i, j] - oracle_entry(state, {k: i, l: j})) < 1e-10


@pytest.mark.parametrize("n", range(1, 11))
def test_kernel_matches_reductions_on_fixtures(n):
    names = fixtures(n) if n >= 2 else {"haar": make_random_haar(1, 3)}
    for name, state in names.items():
        bloch, blocks = marginals(state)
        ref_bloch, ref_blocks = reference_marginals(state)
        assert bloch.shape == (n, 3) and blocks.shape == (n, n, 3, 3)
        assert np.max(np.abs(bloch - ref_bloch)) < 1e-12, name
        assert np.max(np.abs(blocks - ref_blocks), initial=0.0) < 1e-12, name


# n = 16 is the first n whose half-state spans more than one chunk, and
# there qubit 1's bit lies above a chunk of psi[x_0=1]; at n = 18 the bits of
# qubits 1-3 do
@pytest.mark.parametrize("n", [11, 13, 16, 18])
def test_kernel_matches_reductions_at_larger_n(n):
    for state in (make_random_haar(n, 7 * n), make_dicke(n, n // 3)):
        bloch, blocks = marginals(state)
        ref_bloch, ref_blocks = reference_marginals(state)
        assert np.max(np.abs(bloch - ref_bloch)) < 1e-12
        assert np.max(np.abs(blocks - ref_blocks)) < 1e-12


@pytest.mark.parametrize("n", range(1, 13))
def test_flip_and_strided_kernels_agree(n):
    # marginals takes the Gram product of the flipped Pauli images up to
    # _PAULI_GRAM_MAX_QUBITS and the strided passes beyond; each kernel sums
    # in its own order, and both run at every n here
    names = fixtures(n) if n >= 2 else {"haar": make_random_haar(1, 3)}
    for name, state in names.items():
        gram = tensor._pauli_gram(state.amplitudes, n)
        strided = tensor._assemble(*tensor._strided_moments(state.amplitudes, n))
        for a, b in zip(gram, strided):
            assert np.max(np.abs(a - b)) < 1e-13, name
        chosen = gram if n <= tensor._PAULI_GRAM_MAX_QUBITS else strided
        for a, b in zip(marginals(state), chosen):
            assert np.array_equal(a, b), name


@pytest.mark.parametrize("chunk", [1, 2**8])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 11, 13])
def test_chunked_sums_match_one_pass(n, chunk, monkeypatch):
    # small chunks take every case the large states take. A chunk is raised
    # to one row of the c_k split, 2**ceil((n-1)/2) amplitudes: a chunk of 1
    # is 32 amplitudes at n = 11 and 64 at n = 13. So the rows of qubit k's
    # halves, 2**(n-1-k) amplitudes long, are split across chunks and put
    # some qubits' bits above a chunk (k <= 4 at n = 11), chunks hold several
    # rows (k >= 6), and rows shorter than the Gram product's 16 share its
    # rows (k >= 7); bits between the Gram bits and the chunk size take the
    # batched dots, one or two of them at chunk 1 and four at 256; and the
    # sign moments take several row blocks of the smaller workspace.
    # At n = 5 and 3 a chunk of 1 is 4 and 2 amplitudes, narrower than the
    # Gram width, with bits above it; n = 2 and 1 are the smallest states.
    # Each case is held to the per-pair reductions too, since the one pass
    # shares the chunked code.
    names = fixtures(n) if n >= 2 else {"haar": make_random_haar(1, 3)}
    for name, state in names.items():
        whole = tensor._strided_moments(state.amplitudes, n)
        monkeypatch.setattr(tensor, "_CHUNK", chunk)
        chunked = tensor._strided_moments(state.amplitudes, n)
        monkeypatch.undo()
        for a, b in zip(whole, chunked):
            assert np.max(np.abs(a - b)) < 1e-13, name
        for a, b in zip(tensor._assemble(*chunked), reference_marginals(state)):
            assert np.max(np.abs(a - b), initial=0.0) < 1e-12, name


# the Gram kernel at its edges and inside, the strided one past the threshold
# and over several chunks
@pytest.mark.parametrize("n", [1, 2, 5, 10, 11, 18])
def test_kernel_outputs_are_read_only_real_and_symmetric(n):
    bloch, blocks = marginals(make_random_haar(n, 2))
    assert bloch.dtype == np.float64 and blocks.dtype == np.float64
    assert not bloch.flags.writeable and not blocks.flags.writeable
    assert np.array_equal(blocks, blocks.transpose(1, 0, 3, 2))
    assert not np.any(blocks[np.arange(n), np.arange(n)])
    with pytest.raises(ValueError):
        blocks[0, 1, 0, 0] = 1.0


def test_kernel_workspace_is_half_a_state():
    # at n = 16 the two chunk buffers together hold half a state, the
    # kernel's only state-sized transient; a full conj(psi) copy plus a
    # stored c_k would peak at 1.5 states
    n = 16
    state = make_random_haar(n, 16)
    before = state.amplitudes.tobytes()
    first = marginals(state)
    tracemalloc.start()
    try:
        second = marginals(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**n * 16 + 256 * 2**10
    assert state.amplitudes.tobytes() == before
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
        assert not a.flags.writeable and not b.flags.writeable


def test_kernel_workspace_is_one_chunk_beyond_seventeen_qubits():
    # a half-state of 19 qubits is 4 MiB, sixteen chunks of 2**14 amplitudes:
    # only the two 256 KiB chunk buffers are held, never a state-sized array
    n = 19
    state = make_random_haar(n, 19)
    before = state.amplitudes.tobytes()
    first = marginals(state)
    tracemalloc.start()
    try:
        second = marginals(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert state.amplitudes.tobytes() == before
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_flip_kernel_allocates_no_casting_buffer():
    # the Gram kernel's workspace is V, psi and its 3n Pauli images (496 KiB
    # at n = 10), plus the copy of the read-only flip index table that
    # np.take makes (80 KiB) and the small outputs. Complex sign tables cast
    # nothing; a float one would take a casting buffer of at least 128 KiB
    # beside its product, as would a product that broadcast psi over the
    # rows, and a take in mode="raise" would buffer its 160 KiB output
    n = 10
    psi = make_random_haar(n, 10).amplitudes
    first = tensor._pauli_gram(psi, n)
    tracemalloc.start()
    try:
        second = tensor._pauli_gram(psi, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    images = (3 * n + 1) * 2**n * 16
    assert peak < images + n * 2**n * 8 + 32 * 2**10
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    _, sign, minus_i_sign = tensor._pauli_tables(n)
    assert sign.dtype == minus_i_sign.dtype == np.complex128


def test_sign_moments_hold_at_most_two_sign_tables():
    # the sign moments multiply by the whole low sign table (a sliced view was
    # copied by each product) and form each weighted table column by column
    # (a broadcast product took a 64 KiB ufunc buffer beside it): about 115
    # KiB at n = 19, where those copies held 235 KiB
    n = 19
    psi = make_random_haar(n, 19).amplitudes
    work = np.empty(2 * tensor._CHUNK, dtype=np.complex128)
    table = tensor._sign_table(n - n // 2)
    first = tensor._sign_moments(psi, n, work)
    tracemalloc.start()
    try:
        second = tensor._sign_moments(psi, n, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table.nbytes
    assert np.array_equal(first, second)


def permuted(state: PureState, perm: list[int]) -> PureState:
    """State whose qubit i is the input's qubit perm[i]."""
    psi = state.amplitudes.reshape((2,) * state.n).transpose(perm)
    return PureState(state.n, psi.reshape(-1))


@pytest.mark.parametrize("seed", range(4))
def test_permuting_qubits_permutes_blocks(seed):
    n = 6
    rng = np.random.default_rng(seed)
    perm = [int(q) for q in rng.permutation(n)]
    for state in (make_random_haar(n, 60 + seed), make_dicke(n, 2), rotated_ghz(n, seed)):
        bloch, blocks = marginals(state)
        p_bloch, p_blocks = marginals(permuted(state, perm))
        assert np.max(np.abs(p_bloch - bloch[perm])) < 1e-12
        assert np.max(np.abs(p_blocks - blocks[np.ix_(perm, perm)])) < 1e-12
        assert m_pb(permuted(state, perm)) == pytest.approx(m_pb(state), rel=1e-12, abs=1e-12)


def reference_stress(n: int, trials: int, seed: int) -> dict[str, float]:
    """monogamy_stress's seeding contract with blocks from per-pair reductions."""
    pairs = list(itertools.combinations(range(n), 2))
    mins = [math.inf] * 4
    max_pair = -math.inf
    for i in range(trials):
        state = make_random_haar(n, seed + i)
        frame_rng = np.random.default_rng([seed, i])
        frames = [random_rotation(frame_rng) for _ in range(n)]
        values = {}
        for k, l in pairs:
            block = frames[k] @ pair_block(reduced_density_pair(state, k, l)) @ frames[l].T
            values[k, l] = float(np.sum(block[:2, :2] ** 2))
        two_term = [
            values[p] + values[r]
            for q in range(n)
            for p, r in itertools.combinations([p for p in pairs if q in p], 2)
        ]
        triple = [
            values[k, l] + values[l, m] + values[k, m]
            for k, l, m in itertools.combinations(range(n), 3)
        ]
        total_bound = 2.0 if n == 2 else float(math.comb(n, 2))
        slacks = (
            min(2.0 - v for v in values.values()),
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


@pytest.mark.parametrize("n,trials,seed", [(2, 20, 3), (4, 32, 11), (6, 20, 12), (8, 10, 13)])
def test_stress_summary_matches_per_pair_loop(n, trials, seed):
    summary = monogamy_stress(n, trials, seed)
    want = reference_stress(n, trials, seed)
    assert summary.violations == 0
    for name, value in want.items():
        got = getattr(summary, name)
        if math.isinf(value):
            assert got == value, name
        else:
            assert abs(got - value) <= 1e-12, (name, got, value)


def analyze_json(capsys, path, *extra) -> dict:
    assert main(["analyze", "--state", str(path), "--format", "json", *extra]) == 0
    return json.loads(capsys.readouterr().out)


VERDICT_STATES = {
    "dicke-5-2": make_dicke(5, 2),
    "dicke-7-3": make_dicke(7, 3),
    "w-6": make_dicke(6, 1),
    "ghz-5": make_ghz(5),
    "rotated-ghz-4": rotated_ghz(4, 5),
    "haar-6": make_random_haar(6, 66),
    "product-5": random_product(5, 8),
    "ghz3-w3": tensor_product(make_ghz(3), make_dicke(3, 1)),
}


@pytest.mark.parametrize("name", sorted(VERDICT_STATES))
@pytest.mark.parametrize("policy", ["canonical", "maximize:16"])
def test_analyze_verdicts_match_per_pair_reductions(name, policy, tmp_path, capsys, monkeypatch):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(state_to_json_dict(VERDICT_STATES[name])))
    doc = analyze_json(capsys, path, "--zero-policy", policy)
    monkeypatch.setattr(detector, "marginals", reference_marginals)
    ref = analyze_json(capsys, path, "--zero-policy", policy)
    assert doc["m_pb"] == pytest.approx(ref["m_pb"], rel=1e-12, abs=1e-13)
    for key in ref:
        if key != "m_pb":
            assert render_json(doc[key]) == render_json(ref[key]), key
