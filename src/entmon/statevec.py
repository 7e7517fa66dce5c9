"""Construction and manipulation of pure n-qubit states.

Amplitude vectors are dense, length ``2**n``, and indexed so that qubit 0 is
the most significant bit of the basis index (qubit 0 is the leftmost tensor
factor). Every state is normalized at construction and immutable afterwards,
so states can be shared freely across threads; all operations return new
states.

The dense representation caps the qubit count at 20 by default; set the
``ENTMON_MAX_QUBITS`` environment variable to override.
"""
from __future__ import annotations

import io
import json
import math
import os
import re
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import BinaryIO

import numpy as np

DEFAULT_MAX_QUBITS = 20
MAX_QUBITS_ENV = "ENTMON_MAX_QUBITS"

# squared-norm slack tolerated on any constructed state
NORM_TOL = 1e-12
# slack for the unitarity check in apply_local_unitary
UNITARY_TOL = 1e-10

# state-file norm policy: silently accept within LOAD_NORM_TOL, renormalize
# with a warning up to LOAD_RENORM_TOL, reject beyond that
LOAD_NORM_TOL = 1e-9
LOAD_RENORM_TOL = 1e-6


def max_qubits() -> int:
    """Current dense-amplitude qubit cap (ENTMON_MAX_QUBITS or 20)."""
    raw = os.environ.get(MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_QUBITS_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{MAX_QUBITS_ENV} must be >= 1, got {cap}")
    return cap


def _check_qubit_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    cap = max_qubits()
    if n > cap:
        raise ValueError(
            f"qubit count {n} exceeds the cap of {cap} "
            f"(set {MAX_QUBITS_ENV} to raise it)"
        )


def _check_new_state(n: int) -> None:
    """The qubit-count checks of a constructor that allocates 2**n amplitudes:
    the cap, and 16 * 2**n bytes against the machine's physical memory, so
    that an impossible state is refused before anything is allocated or
    enumerated."""
    _check_qubit_count(n)
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: let the allocation decide
        return
    need = 16 << n
    if need > memory:
        raise ValueError(
            f"a {n}-qubit state needs {need / 2**30:.4g} GiB of amplitudes, "
            f"more than the {memory / 2**30:.4g} GiB of physical memory"
        )


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of ``n`` qubits as a dense complex amplitude vector.

    The amplitude array is copied and marked read-only; construction fails if
    any amplitude is not finite or the squared norm deviates from 1 by more
    than ``NORM_TOL``.
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self._take(np.array(self.amplitudes, dtype=np.complex128))

    @classmethod
    def _owning(cls, n: int, amps: np.ndarray) -> PureState:
        """The state whose amplitudes are ``amps``, a complex128 vector the
        caller hands over: the constructor's checks, without its copy."""
        state = object.__new__(cls)
        object.__setattr__(state, "n", n)
        state._take(np.asarray(amps, dtype=np.complex128))
        return state

    def _take(self, amps: np.ndarray) -> None:
        _check_qubit_count(self.n)
        if amps.shape != (2**self.n,):
            raise ValueError(
                f"amplitude vector must have length 2**{self.n} = {2**self.n}, "
                f"got shape {amps.shape}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        # a sum of squares is finite exactly when every amplitude is and
        # nothing overflows, so only a non-finite norm needs the elementwise
        # check, to tell the two faults apart
        if not math.isfinite(norm_sq) and not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite numbers")
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.n


def _normalized(n: int, amps: np.ndarray) -> PureState:
    """Divide ``amps`` by its norm in place and make it the state's array."""
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    amps /= norm
    return PureState._owning(n, amps)


def make_basis_state(n: int, bits: str) -> PureState:
    """Computational basis state for a bit string; bits[0] is qubit 0 (MSB)."""
    _check_new_state(n)
    if len(bits) != n:
        raise ValueError(f"bit string {bits!r} has length {len(bits)}, expected {n}")
    if any(c not in "01" for c in bits):
        raise ValueError(f"bit string {bits!r} may contain only '0' and '1'")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return PureState(n, amps)


def make_dicke(n: int, e: int) -> PureState:
    """Symmetric state with equal amplitude on every basis index of Hamming
    weight ``e`` (bit value 1 = excitation)."""
    _check_new_state(n)
    if not 0 <= e <= n:
        raise ValueError(f"excitation count must satisfy 0 <= e <= {n}, got {e}")
    idx = [i for i in range(2**n) if i.bit_count() == e]
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[idx] = 1.0 / math.sqrt(len(idx))
    return PureState(n, amps)


def make_ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError(f"GHZ state needs at least 2 qubits, got {n}")
    _check_new_state(n)
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return PureState(n, amps)


def make_plus_product(n: int) -> PureState:
    """Product of |+> on every qubit: uniform amplitude 2**(-n/2)."""
    _check_new_state(n)
    amps = np.full(2**n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    return PureState(n, amps)


def make_random_haar(n: int, seed: int) -> PureState:
    """State drawn from the unitarily invariant distribution.

    Draws 2**n complex entries with independent standard-normal real and
    imaginary parts and normalizes; deterministic for a given seed.
    """
    _check_new_state(n)
    rng = np.random.default_rng(seed)
    dim = 2**n
    # the draws go straight into one complex array, real part first as in
    # standard_normal + 1j * standard_normal, so the peak is the state plus
    # one float draw
    z = np.empty(dim, dtype=np.complex128)
    z.real = rng.standard_normal(dim)
    z.imag = rng.standard_normal(dim)
    return _normalized(n, z)


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Joint state with a's qubits first (most significant)."""
    return PureState(a.n + b.n, np.kron(a.amplitudes, b.amplitudes))


def apply_local_unitary(state: PureState, qubit: int, U: np.ndarray) -> PureState:
    """Apply a 2x2 unitary to one tensor factor."""
    if not 0 <= qubit < state.n:
        raise ValueError(f"qubit index {qubit} out of range for n={state.n}")
    U = np.asarray(U, dtype=np.complex128)
    if U.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {U.shape}")
    if np.max(np.abs(U.conj().T @ U - np.eye(2))) > UNITARY_TOL:
        raise ValueError("matrix is not unitary")
    psi = state.amplitudes.reshape((2,) * state.n)
    psi = np.moveaxis(np.tensordot(U, psi, axes=([1], [qubit])), 0, qubit)
    return PureState(state.n, psi.reshape(-1))


def state_from_json_dict(obj: dict) -> PureState:
    """Parse the state-file JSON object {"n": int, "amplitudes": [[re, im], ...]}.

    ``n`` must be integral: an int, an integral float or a numeric string
    (booleans are rejected). Every pair must be a two-element list (or tuple)
    of finite numbers. The norm is validated on load: deviations up to 1e-9
    are accepted, up to 1e-6 the state is renormalized with a warning,
    anything beyond is rejected.
    """
    return _state_from_flat(*_flat_from_dict(obj))


def state_from_json_bytes(data: bytes) -> PureState:
    """Parse a state file's raw bytes (UTF-8 JSON) into a state.

    Accepts exactly the documents ``state_from_json_dict(json.loads(...))``
    accepts, with bit-identical amplitudes and the same error messages; any
    failure raises ValueError. The layout entmon writes, ``{"n": <integer>,
    "amplitudes": [[re, im], ...]}`` in that key order with any whitespace,
    is read in blocks straight into one float64 array, without building a
    Python list per pair.
    """
    return _state_from_json_file(io.BytesIO(data))


def _state_from_json_file(fh: BinaryIO) -> PureState:
    """``state_from_json_bytes(fh.read())`` for a binary file at its start.

    A seekable file in entmon's layout is read in blocks and never held
    whole. If the block reader declines, the file is read again, whole, for
    the general path. An unseekable file is read whole first. Read failures
    propagate as OSError.
    """
    if not fh.seekable():
        fh = io.BytesIO(fh.read())
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    parsed = _flat_from_blocks(iter(partial(fh.read, _CHUNK_BYTES), b""), size)
    if parsed is None:
        fh.seek(0)
        parsed = _flat_from_json(fh.read())
    return _state_from_flat(*parsed)


def _flat_from_json(data: bytes) -> tuple[int, np.ndarray]:
    """The general path: the whole document through ``json.loads``."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"contents are not valid UTF-8: {exc}") from None
    except RecursionError:
        raise ValueError("JSON arrays or objects are nested too deeply") from None
    return _flat_from_dict(obj)


def _flat_from_dict(obj) -> tuple[int, np.ndarray]:
    """Check a parsed state file's fields; return n and the re/im values."""
    if not isinstance(obj, dict):
        raise ValueError("state file must contain a JSON object")
    try:
        n_field = obj["n"]
        if isinstance(n_field, bool) or (isinstance(n_field, float) and not n_field.is_integer()):
            raise ValueError(f"qubit count must be an integer, got {n_field!r}")
        n = int(n_field)
        pairs = obj["amplitudes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"state file is missing or has malformed fields: {exc}") from None
    _check_qubit_count(n)
    if not isinstance(pairs, list) or len(pairs) != 2**n:
        raise ValueError(
            f"state file must list exactly 2**{n} = {2**n} amplitude pairs"
        )
    if not set(map(type, pairs)) <= {list, tuple} or set(map(len, pairs)) != {2}:
        raise ValueError("amplitudes must be [re, im] number pairs")
    try:
        flat = np.fromiter(chain.from_iterable(pairs), dtype=float, count=2 * len(pairs))
    except OverflowError:
        # an integer beyond the float range, like 1e400 written out in digits
        raise ValueError("amplitudes must be finite numbers") from None
    except (TypeError, ValueError):
        raise ValueError("amplitudes must be [re, im] number pairs") from None
    return n, flat


# JSON whitespace, and the bytes a JSON number can contain
_JSON_WS = b" \t\n\r"
_NUMBER_AND_WS = b"0123456789+-.eE" + _JSON_WS
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
_ENTMON_HEAD = re.compile(
    rb'[ \t\n\r]*\{[ \t\n\r]*"n"[ \t\n\r]*:[ \t\n\r]*(-?(?:0|[1-9][0-9]{0,8}))'
    rb'[ \t\n\r]*,[ \t\n\r]*"amplitudes"[ \t\n\r]*:[ \t\n\r]*\['
)
# bytes read per block; one block holds about 1.5k pairs
_CHUNK_BYTES = 1 << 16


def _flat_from_blocks(blocks: Iterator[bytes], size: int) -> tuple[int, np.ndarray] | None:
    """Read {"n": <int>, "amplitudes": [[re, im], ...]} without per-pair lists,
    from the consecutive blocks of a document of ``size`` bytes.

    Returns None for any other document, and for any document a check here
    rejects, so that the general parser decides its outcome and message.
    """
    pending = next(blocks, b"")
    head = _ENTMON_HEAD.match(pending)
    if head is None:
        return None
    n = int(head.group(1))
    if n < 1 or n > max_qubits():
        return None
    count = 2**n
    # A pair and its separator take at least 6 bytes ("[0,0],"), so a short
    # file claiming a large n allocates nothing of size 2**n.
    if size - head.end() < 6 * count:
        return None
    flat = np.empty(2 * count)
    filled = 0
    pending = pending[head.end():]
    try:
        for block in blocks:
            pending += block
            comma = _last_separator(pending)
            if comma >= 0:
                filled = _fill_pairs(flat, filled, pending[:comma])
                pending = pending[comma + 1:]
            # a pair longer than a block (a long whitespace run, say) would
            # make the rescans quadratic; the general path reads it instead
            if len(pending) > _CHUNK_BYTES:
                return None
        # the last pairs, the array's ], then only whitespace and }
        stop = pending.rfind(b"]")
        if stop < 0 or pending[stop + 1:].translate(None, _JSON_WS) != b"}":
            return None
        filled = _fill_pairs(flat, filled, pending[:stop])
    # orjson.JSONDecodeError, raised on a number that overflows to +-inf, is a
    # ValueError: the general path then reports that number
    except (ValueError, OverflowError):
        return None
    if filled != flat.size:
        return None
    return n, flat


def _last_separator(pending: bytes) -> int:
    """Index of the last pair separator (the first , after a ]), or -1.

    In entmon's layout it follows one of the last three ]s, because the text
    may end after a pair's ] or after the array's ]] with no separator yet.
    """
    close = len(pending)
    for _ in range(3):
        close = pending.rfind(b"]", 0, close)
        if close < 0:
            return -1
        comma = pending.find(b",", close)
        if comma >= 0:
            return comma
    return -1


def _fill_pairs(flat: np.ndarray, filled: int, segment: bytes) -> int:
    """Parse ``segment``, [re, im] pairs joined by commas, into ``flat`` from
    index ``filled``; return the new fill. Raises ValueError on anything else.

    orjson gives every number the float bits ``json`` gives it, and refuses
    one that overflows to +-inf. It is imported here, not with the module:
    its import takes about 7 ms, and only a state file needs it.
    """
    import orjson

    # Deleting every number and whitespace byte must leave [,],...,[,].
    # Brackets then become spaces (not deleted), so a stray number next to a
    # bracket cannot merge with its neighbour.
    skeleton = segment.translate(None, _NUMBER_AND_WS)
    pairs = (len(skeleton) + 1) // 4
    if skeleton != b"[,]," * (pairs - 1) + b"[,]":
        raise ValueError("not a run of [re, im] pairs")
    values = orjson.loads(b"[" + segment.translate(_BRACKETS_TO_SPACES) + b"]")
    flat[filled:filled + len(values)] = np.fromiter(values, dtype=float, count=len(values))
    return filled + len(values)


# values per block of ``_norm``'s sum: 64 KiB of float64, the reader's block size
_NORM_BLOCK = 1 << 13


def _norm(values: np.ndarray) -> float:
    """The 2-norm of a float64 vector, correct to about an ulp.

    Each 64 KiB block's squares are added by NumPy's pairwise sum, and the
    block sums by ``math.fsum``. ``np.linalg.norm`` adds in order; on a
    vector with many equal entries its rounding errors share one sign, and
    the norm of a Dicke(20, 10) file came out 2.5e-13 off.
    """
    block = np.empty(min(len(values), _NORM_BLOCK))
    sums = []
    for start in range(0, len(values), _NORM_BLOCK):
        part = block[:len(values) - start]
        np.square(values[start:start + _NORM_BLOCK], out=part)
        sums.append(float(part.sum()))
    return math.sqrt(math.fsum(sums))


def _state_from_flat(n: int, flat: np.ndarray) -> PureState:
    """Apply the load policy (finite, norm tolerances) to 2**(n+1) re/im values."""
    if not np.isfinite(flat).all():
        raise ValueError("amplitudes must be finite numbers")
    amps = flat.view(np.complex128)
    norm = _norm(flat)
    err = abs(norm - 1.0)
    if err > LOAD_RENORM_TOL:
        raise ValueError(f"state norm {norm!r} deviates from 1 by {err:.3e} (> {LOAD_RENORM_TOL})")
    if err > LOAD_NORM_TOL:
        warnings.warn(
            f"state norm deviates from 1 by {err:.3e}; renormalizing",
            stacklevel=3,
        )
    amps /= norm
    flat.setflags(write=False)  # the state's array is a view of it
    return PureState._owning(n, amps)


def state_to_json_dict(state: PureState) -> dict:
    """Inverse of state_from_json_dict (useful for writing state files)."""
    return {
        "n": state.n,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
