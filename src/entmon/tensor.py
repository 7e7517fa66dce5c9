"""Reduced density matrices, Bloch vectors, and two-qubit correlation blocks.

``marginals`` is the production path: it returns every Bloch vector and every
3x3 pair block of a state, up to 10 qubits from one real Gram product of the
state and its 3n Pauli images, and beyond from one pass over the amplitude
vector per qubit, taken in chunks with a few BLAS products each. Its
workspace stays below 1 MiB at any size (see its docstring for both
kernels). The per-qubit and per-pair reductions (``reduced_density_single``,
``reduced_density_pair``, ``bloch_vector``, ``pair_block``) stay public as the
readable API for a single marginal and as the reference the kernel is tested
against. ``correlation_component`` is a deliberately independent cross-check
that expands the full operator Kronecker product; it is capped at 10 qubits.

Pauli index convention throughout: 0 = identity, 1 = x, 2 = y, 3 = z.
Correlation values are mathematically real; a residual imaginary part above
``IMAG_TOL`` always indicates an implementation bug and raises.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .statevec import PureState

HERMITIAN_TOL = 1e-10
IMAG_TOL = 1e-10
ORACLE_MAX_QUBITS = 10

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)

# PAULI_KRON[i, j] = sigma_{i+1} (x) sigma_{j+1}, for the pair-block traces
PAULI_KRON = np.empty((3, 3, 4, 4), dtype=np.complex128)
for _i in range(3):
    for _j in range(3):
        PAULI_KRON[_i, _j] = np.kron(PAULI[_i + 1], PAULI[_j + 1])
del _i, _j


def _check_hermitian(rho: np.ndarray, what: str) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITIAN_TOL:
        raise ValueError(f"{what} is not Hermitian within {HERMITIAN_TOL}")
    return rho


def _real(values: np.ndarray, what: str) -> np.ndarray:
    imag = np.max(np.abs(np.imag(values)))
    if imag > IMAG_TOL:
        raise ValueError(
            f"{what} has imaginary residue {imag:.3e} > {IMAG_TOL}; this indicates a bug"
        )
    return np.real(values)


def reduced_density_single(state: PureState, k: int) -> np.ndarray:
    """2x2 reduced density matrix of qubit ``k`` (trace over all others)."""
    if not 0 <= k < state.n:
        raise ValueError(f"qubit index {k} out of range for n={state.n}")
    psi = state.amplitudes.reshape((2,) * state.n)
    m = np.moveaxis(psi, k, 0).reshape(2, -1)
    return m @ m.conj().T


def reduced_density_pair(state: PureState, k: int, l: int) -> np.ndarray:
    """4x4 reduced density matrix of qubits ``k < l``.

    Qubit ``k`` indexes the more significant factor of the 4-dim space.
    """
    if k == l:
        raise ValueError("pair indices must be distinct")
    if not 0 <= k < l < state.n:
        raise ValueError(f"pair indices must satisfy 0 <= k < l < {state.n}, got ({k}, {l})")
    psi = state.amplitudes.reshape((2,) * state.n)
    m = np.moveaxis(psi, (k, l), (0, 1)).reshape(4, -1)
    return m @ m.conj().T


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch components (tr(rho sigma_x), tr(rho sigma_y), tr(rho sigma_z))."""
    rho = _check_hermitian(rho, "density matrix")
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    b = np.einsum("ab,iba->i", rho, PAULI[1:])
    return _real(b, "Bloch vector")


def pair_block(rho: np.ndarray) -> np.ndarray:
    """3x3 block T[i][j] = tr(rho sigma_i (x) sigma_j) of a two-qubit state."""
    rho = _check_hermitian(rho, "density matrix")
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    T = np.einsum("ab,ijba->ij", rho, PAULI_KRON)
    return _real(T, "correlation block")


@lru_cache(maxsize=None)
def _sign_table(m: int, dtype=np.float64) -> np.ndarray:
    """(2**m, m + 1) table: a column of ones, then s_j(i) = 1 - 2 * (bit j
    of i) for the m bits of i, most significant first."""
    bits = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    table = np.hstack((np.ones((1 << m, 1)), 1 - 2 * bits)).astype(dtype)
    table.setflags(write=False)
    return table


def _weighted_gram(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """table.T @ (weights[:, None] * table), with the weighted copy formed one
    column at a time: the broadcast product took a 64 KiB ufunc buffer
    beside the copy."""
    weighted = np.empty(table.shape)
    for j in range(table.shape[1]):
        np.multiply(table[:, j], weights, out=weighted[:, j])
    return table.T @ weighted


def _sign_moments(psi: np.ndarray, n: int, work: np.ndarray) -> np.ndarray:
    """G[a, b] = sum_x p(x) s_a(x) s_b(x) over n bits, with p = |psi|^2,
    s_0 = 1 and s_{1+j} the sign of bit j: row 0 holds the total and the
    first moments, G[1:, 1:] the second moments.

    p is split as P = 2**h x 2**(n-h) and taken in blocks of whole rows
    that fill the float64 view of ``work``, up to all of p; the row sums, column sums and
    (hi^T P) lo of the blocks add up to those of P, and a single block
    gives the bits of one pass."""
    h = n // 2
    W = 1 << (n - h)
    hi = _sign_table(h)
    # the whole table, ones column too: a sliced view would be copied by
    # every product; the ones row and column are dropped from the results
    lo = _sign_table(n - h)
    buf = work.view(np.float64)[: 1 << n]  # a power of two of at least W floats
    block = len(buf)
    rows = np.empty(1 << h)
    for start in range(0, 1 << n, block):
        P = np.abs(psi[start : start + block], out=buf[:block]).reshape(-1, W)
        np.square(P, out=P)
        r = start // W
        rows[r : r + len(P)] = P.sum(axis=1)
        cols_part = P.sum(axis=0)
        cross_part = (hi[r : r + len(P)].T @ P) @ lo
        if start == 0:
            cols, cross = cols_part, cross_part
        else:
            cols += cols_part
            cross += cross_part
    G = np.empty((n + 1, n + 1))
    G[: h + 1, : h + 1] = _weighted_gram(hi, rows)
    G[h + 1 :, h + 1 :] = _weighted_gram(lo, cols)[1:, 1:]
    G[: h + 1, h + 1 :] = cross[:, 1:]
    G[h + 1 :, : h + 1] = cross[:, 1:].T
    return G


# marginals takes one Gram product of the Pauli images up to this many qubits
# and chunked passes beyond: the measured crossover (see marginals)
_PAULI_GRAM_MAX_QUBITS = 10
# the strided kernel copies psi[x_k=0] and conj(psi[x_k=1]) in chunks of this
# many amplitudes (256 KiB each) into its only two buffers
_CHUNK = 1 << 14
# the lowest bits of a chunk, whose A and B come from one Gram product of
# its rows of 2**_GRAM_BITS amplitudes
_GRAM_BITS = 4


def marginals(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Every Bloch vector and every pair block of a state, in one call.

    Returns ``(bloch, blocks)``: ``bloch[k]`` is qubit k's Bloch vector
    (shape (n, 3)) and ``blocks[k, l]`` the 3x3 block T[i][j] =
    tr(rho_kl sigma_i (x) sigma_j) with qubit k on the first index, so
    ``blocks[l, k] = blocks[k, l].T``; the unused diagonal ``blocks[k, k]``
    is zero. Both arrays are real and read-only.

    For a pure state these are inner products of its Pauli images:
    b_k[i] = Re<psi|sigma_i^(k) psi> and T_kl[i][j] =
    Re<sigma_i^(k) psi|sigma_j^(l) psi>. Up to ``_PAULI_GRAM_MAX_QUBITS`` =
    10 qubits, ``_pauli_gram`` takes them all from one real Gram product of
    psi and its 3n images, which is what a small state costs. Beyond,
    ``_strided_moments`` copies the two halves of each qubit's bit through
    two buffers of ``_CHUNK`` = 2**14 amplitudes (512 KiB together) and
    takes every sum from a few BLAS products per chunk, so a call holds no
    state-sized array of its own, and ``_assemble`` turns its moments into
    blocks. The threshold is the measured crossover. Per call, on a 2-core
    Xeon with NumPy 2.4 and OpenBLAS (three runs of seven alternating rounds
    of 301 calls, 101 from n = 11, each a median), the Gram product is
    9.3-13x faster at n = 3-7, 6.6-7.3x at n = 8, 4.1-4.8x at n = 9 and
    1.8-2.5x at n = 10, level at n = 11 (0.90-1.21x) and 0.62-0.69x as fast
    at n = 12. The kernels sum in different orders, so their results agree
    to about 1e-15, not bit for bit. From 16 qubits on a half-state spans
    several chunks, whose sums are added up in turn.
    """
    n = state.n
    if n <= _PAULI_GRAM_MAX_QUBITS:
        return _pauli_gram(state.amplitudes, n)
    return _assemble(*_strided_moments(state.amplitudes, n))


@lru_cache(maxsize=None)
def _pauli_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables of n qubits, each (n, 2**n): flip[k, z] is z with qubit k's bit
    flipped, sign[k, z] = 1 - 2 z_k and minus_i_sign = -1j * sign, both
    complex, so that the products with the state cast nothing."""
    z = np.arange(1 << n)
    bit = 1 << np.arange(n - 1, -1, -1)[:, None]
    sign = (1 - 2 * ((z & bit) != 0)).astype(np.complex128)
    tables = (z ^ bit, sign, -1j * sign)
    for table in tables:
        table.setflags(write=False)
    return tables


def _pauli_gram(psi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``marginals``' output from one Gram product of the Pauli images.

    The rows of V are psi, then X_k = psi(z ^ e_k), Y_k = -i s_k X_k and
    Z_k = s_k psi for k = 0..n-1, each family in order. With F the float64
    view of V, (F F^T)[a, b] = Re<V_a|V_b>, so row 0 holds the Bloch vectors
    and the rest, regrouped by qubit, the pair blocks; the diagonal blocks
    (the identity) are zeroed.
    """
    flip, sign, minus_i_sign = _pauli_tables(n)
    V = np.empty((3 * n + 1, 1 << n), dtype=np.complex128)
    V[0] = psi
    X, Y, Z = V[1 : n + 1], V[n + 1 : 2 * n + 1], V[2 * n + 1 :]
    # a take in the default mode="raise" would buffer its output
    np.take(psi, flip, out=X, mode="wrap")
    np.multiply(minus_i_sign, X, out=Y)
    # psi copied, then signed in place: a product that broadcast psi over the
    # rows would take a 128 KiB ufunc buffer
    Z[...] = psi
    np.multiply(Z, sign, out=Z)
    F = V.view(np.float64)
    G = F @ F.T  # one operand twice: a symmetric product, so G is exactly symmetric
    bloch = np.ascontiguousarray(G[0, 1:].reshape(3, n).T)
    blocks = np.ascontiguousarray(G[1:, 1:].reshape(3, n, 3, n).transpose(1, 3, 0, 2))
    blocks[np.arange(n), np.arange(n)] = 0.0
    bloch.setflags(write=False)
    blocks.setflags(write=False)
    return bloch, blocks


@lru_cache(maxsize=None)
def _gram_masks(g: int) -> np.ndarray:
    """(2 g, 4**g) 0/1 matrix that reads A and B of the lowest g bits from a
    Gram product. With M[u, v] = sum_r a[r w + u] b[r w + v] over a chunk
    split as rows of w = 2**g, row i (bit e = g - 1 - i, so the qubits come in
    order) sums M[u, u | 2**e] over the u with bit e clear, which is A, and
    row g + i sums M[u, u & ~2**e] over the u with it set, which is B.
    Complex, so that the product with M casts nothing."""
    w = 1 << g
    u = np.arange(w)[:, None]
    v = np.arange(w)
    d = 1 << np.arange(g - 1, -1, -1)[:, None, None]
    masks = np.concatenate(
        ((u & d == 0) & (v == u | d), (u & d != 0) & (v == u & ~d))
    ).reshape(2 * g, w * w).astype(np.complex128)
    masks.setflags(write=False)
    return masks


def _strided_moments(psi: np.ndarray, n: int):
    """The moments of ``marginals`` from chunked passes over the state.

    Every z moment comes from the row and column sums of a vector over m bits
    reshaped to 2**h x 2**(m-h), times small cached sign tables, so these
    cost O(n) passes over the state. For each k, psi[x_k=0] and
    conj(psi[x_k=1]) are copied one chunk of ``_CHUNK`` amplitudes at a time
    into two contiguous buffers a and b, and each pair of chunks gives the A
    and B of every l > k and the sums of c_k through a few BLAS-backed
    products. Qubit l is bit d = 2**(m-l) of the half-state index, so:

    - the lowest ``_GRAM_BITS`` = 4 bits of a chunk come from one Gram
      product of its rows of 16, read out by ``_gram_masks``;
    - each other bit inside the chunk comes from one batched matmul of the
      dots of a's and b's halves of that bit, whose terms one reduceat per
      chunk adds up;
    - a bit above the chunk (only when 2**(m-k) > ``_CHUNK``) puts the whole
      chunk in one half of it, and one dot with the partner run of psi[x_k=0]
      gives its A or B;
    - c_k = a b is then formed in place in a, and its row and column sums are
      two matrix-vector products; c_k is never stored whole.

    The transient memory is the two buffers, 512 KiB, plus vectors of length
    O(2**(n/2) + ``_CHUNK``/8), whatever the size of the state.
    """
    m = n - 1
    h = m // 2
    W = 1 << (m - h)
    # a chunk holds whole rows of the 2**h x W split of a half-state
    chunk = min(1 << m, max(_CHUNK, W))
    bits = chunk.bit_length() - 1
    # the only buffers, one allocation per call: p = |psi|^2 in row blocks,
    # then the chunks a and b
    work = np.empty(2 * chunk, dtype=np.complex128)
    G = _sign_moments(psi, n, work)
    a, b = work[:chunk], work[chunk:]

    g = min(_GRAM_BITS, bits)
    masks = _gram_masks(g)
    # the bits d = 2**g .. chunk/2 inside a chunk, smallest d first: the
    # matmul of bit d writes its chunk/2d terms of A, then those of B, to
    # the next two segments of parts, so the bits of the qubits l > k are
    # a prefix of the dots and of parts
    bounds = np.cumsum([0] + [chunk >> (e + 1) for e in range(g, bits) for _ in "AB"])
    parts = np.empty(bounds[-1], dtype=np.complex128)
    dots = []
    for u, e in enumerate(range(g, bits)):
        half = chunk >> (e + 1)
        out = parts[bounds[2 * u] : bounds[2 * u + 2]].reshape(2, half, 1, 1)
        a3, b3 = a.reshape(half, 2, 1, 1 << e), b.reshape(half, 2, 1 << e, 1)
        dots.append((a3, b3[:, ::-1], out.transpose(1, 0, 2, 3)))

    # row k: sum c_k, then sum c_k s_l for the other qubits l in order, from
    # the row and column sums of c_k split as 2**h x W (never stored)
    hi = _sign_table(h, np.complex128)
    lo = _sign_table(m - h, np.complex128)  # its column of ones is dropped below
    ones = np.ones(max(W, chunk // W), dtype=np.complex128)
    rows = np.empty(1 << h, dtype=np.complex128)
    cols = np.empty(W, dtype=np.complex128)
    c_sums = np.empty((n, n), dtype=np.complex128)
    # A[k, l] and B[k, l] for k < l
    AB = np.zeros((n, 2, n), dtype=np.complex128)
    for k in range(n):
        L = 1 << (m - k)
        halves = psi.reshape(1 << k, 2, L)
        # a chunk is R rows i of S amplitudes j of a half (index i*L + j)
        R, S = max(1, chunk // L), min(L, chunk)
        # the qubits l > k from k + 1 lie above the chunk, from inside on
        # inside it, and from gram on among the Gram bits
        inside = max(k + 1, m - bits + 1)
        gram = max(k + 1, m - g + 1)
        used = gram - inside  # the inside bits, from d = 2**g up
        cols[:] = 0
        for start in range(0, 1 << m, chunk):
            i, j = divmod(start, L)
            np.copyto(a.reshape(R, S), halves[i : i + R, 0, j : j + S])
            # copied, then conjugated in place: a conjugate of R > 1 strided
            # rows would take a 128 KiB ufunc buffer
            np.copyto(b.reshape(R, S), halves[i : i + R, 1, j : j + S])
            np.conjugate(b, out=b)
            M = a.reshape(-1, 1 << g).T @ b.reshape(-1, 1 << g)
            AB[k, :, gram:] += (masks @ M.ravel()).reshape(2, g)[:, gram - (m - g + 1) :]
            if used > 0:
                for x, y, out in dots[:used]:
                    np.matmul(x, y, out=out)
                terms = np.add.reduceat(parts[: bounds[2 * used]], bounds[: 2 * used])
                AB[k, :, inside:gram] += terms.reshape(used, 2).T[:, ::-1]
            for l in range(k + 1, inside):
                # the bit lies above the chunk (R = 1), so the chunk sits in
                # one half of it: x_l = 1 pairs with psi[x_k=0] at j - d for
                # A, x_l = 0 with psi[x_k=0] at j + d for B
                flip = j ^ (1 << (m - l))
                AB[k, int(flip > j), l] += np.dot(halves[i, 0, flip : flip + S], b)
            P = np.multiply(a, b, out=a).reshape(-1, W)
            np.matmul(P, ones[:W], out=rows[start // W : start // W + len(P)])
            cols += ones[: len(P)] @ P
        np.dot(rows, hi, out=c_sums[k, : h + 1])
        c_sums[k, h + 1 :] = np.dot(cols, lo)[1:]

    # into the sign table's layout: column 1 + l for qubit l, row k's own
    # column left zero; row k of c_sums lists the qubits l != k in order,
    # which is the row-major order of the off-diagonal
    c = np.zeros((n, n + 1), dtype=np.complex128)
    c[:, 0] = c_sums[:, 0]
    c[:, 1:][~np.eye(n, dtype=bool)] = c_sums[:, 1:].ravel()
    return G, c, AB[:, 0], AB[:, 1]


def _assemble(G: np.ndarray, c: np.ndarray, A: np.ndarray, B: np.ndarray):
    """``marginals``' output from the strided kernel's moments: G[a, b] =
    sum p s_a s_b over the sign table's columns (0 = ones, 1 + l = qubit l),
    c[k, 0] = sum c_k and c[k, 1 + l] = sum c_k s_l for l != k, and A and B
    for k < l only (zero elsewhere)."""
    n = len(c)
    # swapping k and l keeps A and conjugates B; mirroring the k < l half
    # makes the blocks exactly symmetric
    A = A + A.T
    B = B + B.conj().T

    bloch = np.empty((n, 3))
    bloch[:, 0] = 2.0 * c[:, 0].real
    bloch[:, 1] = -2.0 * c[:, 0].imag
    bloch[:, 2] = G[0, 1:]

    xz = 2.0 * c[:, 1:]  # xz - i yz
    xx = 2.0 * (A + B)  # xx - i yx
    yy = 2.0 * (B - A)  # yy + i xy
    blocks = np.empty((n, n, 3, 3))
    blocks[..., 0, 0] = xx.real
    blocks[..., 0, 1] = yy.imag
    blocks[..., 0, 2] = xz.real
    blocks[..., 1, 0] = -xx.imag
    blocks[..., 1, 1] = yy.real
    blocks[..., 1, 2] = -xz.imag
    blocks[..., 2, :2] = blocks[..., :2, 2].transpose(1, 0, 2)
    blocks[..., 2, 2] = G[1:, 1:]
    blocks[np.arange(n), np.arange(n)] = 0.0
    bloch.setflags(write=False)
    blocks.setflags(write=False)
    return bloch, blocks


def correlation_component(state: PureState, mu: Sequence[int]) -> float:
    """Exact component <psi| sigma_mu1 (x) ... (x) sigma_mun |psi>.

    Cross-validation oracle: builds the full Kronecker product, so it is
    restricted to ``n <= 10``.
    """
    if len(mu) != state.n:
        raise ValueError(f"index vector has length {len(mu)}, expected {state.n}")
    if state.n > ORACLE_MAX_QUBITS:
        raise ValueError(
            f"full-tensor oracle supports at most {ORACLE_MAX_QUBITS} qubits, got {state.n}"
        )
    if any(not 0 <= int(m) <= 3 for m in mu):
        raise ValueError(f"indices must be in 0..3, got {tuple(mu)}")
    op = reduce(np.kron, (PAULI[int(m)] for m in mu))
    value = np.vdot(state.amplitudes, op @ state.amplitudes)
    return float(_real(np.asarray(value), "correlation component"))
