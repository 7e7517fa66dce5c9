"""Per-qubit preferred axes.

A qubit's preferred frame is any frame whose z axis is its Bloch direction.
The pairwise in-plane quantities depend on the frame only through that axis
a: the in-plane rows of every such frame span the plane orthogonal to a,
whose projector is I - a a^T. So a frame is represented by its unit z axis,
and a set of frames by an (n, 3) array of axes.

Qubits whose Bloch vector vanishes (norm <= EPS_BLOCH) have no distinguished
axis; ZeroPolicy selects one. The "maximize" search over axes lives in the
detector, which owns the objective.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bloch norms at or below this count as "vanishing": far above rounding noise
# at n <= 20, far below any physically meaningful Bloch length.
EPS_BLOCH = 1e-9

ROTATION_TOL = 1e-10

_Z = np.array([0.0, 0.0, 1.0])

CANONICAL = "canonical"
FIXED_AXIS = "axis"
MAXIMIZE = "maximize"
# the most random axes the maximize search draws per qubit: it keeps one 3x3
# projector per candidate and tries each in turn, so a larger count costs
# time and memory without bound
MAX_SAMPLES = 10_000


@dataclass(frozen=True)
class ZeroPolicy:
    """Axis choice for qubits with vanishing Bloch vector.

    canonical: keep the computational z axis.
    axis:      use the given unit vector as the z axis.
    maximize:  search over axes for the largest detection value (resolved by
               the detector; ``samples`` random axes per qubit, at most
               ``MAX_SAMPLES``, plus the six signed coordinate axes, seeded
               for reproducibility).
    """

    mode: str = CANONICAL
    axis: tuple[float, float, float] | None = None
    samples: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in (CANONICAL, FIXED_AXIS, MAXIMIZE):
            raise ValueError(f"unknown zero-policy mode {self.mode!r}")
        if self.mode == FIXED_AXIS:
            if self.axis is None:
                raise ValueError("axis mode requires an axis vector")
            _unit_axes([self.axis], 1)
        if self.mode == MAXIMIZE:
            if not 1 <= self.samples <= MAX_SAMPLES:
                raise ValueError(
                    f"sample count must be in 1..{MAX_SAMPLES}, got {self.samples}"
                )
            if self.seed < 0:
                raise ValueError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def canonical(cls) -> "ZeroPolicy":
        return cls(CANONICAL)

    @classmethod
    def fixed_axis(cls, axis) -> "ZeroPolicy":
        a = np.asarray(axis, dtype=float)
        if a.shape != (3,):
            raise ValueError(f"axis vector needs three components, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("axis components must be finite")
        scale = float(np.max(np.abs(a)))
        if scale == 0.0:
            raise ValueError("axis vector must be nonzero")
        # scaling by the largest component first keeps the norm from
        # overflowing (1e300) or underflowing (1e-320)
        a = a / scale
        a = a / np.linalg.norm(a)
        return cls(FIXED_AXIS, axis=(float(a[0]), float(a[1]), float(a[2])))

    @classmethod
    def maximize(cls, samples: int = 64, seed: int = 0) -> "ZeroPolicy":
        return cls(MAXIMIZE, samples=samples, seed=seed)

    def describe(self) -> str:
        if self.mode == FIXED_AXIS:
            x, y, z = self.axis
            return f"axis={x:g},{y:g},{z:g}"
        if self.mode == MAXIMIZE:
            return f"maximize:{self.samples}"
        return CANONICAL


def _unit_axes(axes, n: int) -> np.ndarray:
    """``axes`` as an (n, 3) float array; raises ValueError unless every row
    is a finite vector whose norm is within ROTATION_TOL of 1."""
    a = np.asarray(axes, dtype=float)
    if a.shape != (n, 3):
        raise ValueError(f"expected axes of shape ({n}, 3), got {a.shape}")
    # a NaN or infinite entry makes its row's comparison False as well
    if not (np.abs(np.sqrt((a * a).sum(axis=1)) - 1.0) <= ROTATION_TOL).all():
        raise ValueError("axes must be finite vectors of unit norm")
    return a


def _zero_bloch(bloch: np.ndarray) -> np.ndarray:
    """The mask of the qubits whose Bloch vector (a row of the (n, 3)
    ``bloch``) vanishes: norm <= EPS_BLOCH. The one rule for which qubits
    have no Bloch direction, so the frames and the maximize search agree."""
    return np.linalg.norm(bloch, axis=1) <= EPS_BLOCH


def preferred_axes(bloch, policy: ZeroPolicy | None = None) -> np.ndarray:
    """Unit z axis of every qubit's preferred frame, shape (n, 3), from the
    Bloch vectors ``bloch`` (shape (n, 3)).

    Each axis is the qubit's Bloch direction. Where the Bloch vector vanishes
    it is the policy's own axis under ``axis``, and z under ``canonical`` and
    as the starting point of the ``maximize`` search.
    """
    policy = policy or ZeroPolicy.canonical()
    bloch = np.asarray(bloch, dtype=float)
    if bloch.ndim != 2 or bloch.shape[1] != 3:
        raise ValueError(f"expected Bloch vectors of shape (n, 3), got {bloch.shape}")
    zero = _zero_bloch(bloch)
    axes = np.empty_like(bloch)
    axes[~zero] = bloch[~zero] / np.linalg.norm(bloch[~zero], axis=1)[:, None]
    axes[zero] = policy.axis if policy.mode == FIXED_AXIS else _Z
    return axes


def rotation_from_quaternion(q) -> np.ndarray:
    """Rotation matrix for a unit quaternion (w, x, y, z)."""
    w, x, y, z = (float(v) for v in q)
    vx = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + 2.0 * w * vx + 2.0 * (vx @ vx)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation drawn uniformly from SO(3) (via a random unit quaternion)."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return rotation_from_quaternion(q)


def _random_axes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Z rows of n ``random_rotation(rng)`` draws, shape (n, 3), from one
    (n, 4) quaternion draw: the same stream, without building the matrices.
    The z row of the rotation of (w, x, y, z) is
    (2(xz - wy), 2(yz + wx), 1 - 2(x^2 + y^2))."""
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack(
        (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)), axis=1
    )
