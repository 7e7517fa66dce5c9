"""Per-qubit preferred Cartesian frames and correlation-block rotations.

A frame is a proper rotation (3x3 orthogonal, det +1) expressing a qubit's
correlation indices in new axes; the preferred frame maps the qubit's Bloch
vector to +z. Only the z direction is pinned by the Bloch vector -- the
in-plane completion is an arbitrary deterministic choice, and the pairwise
in-plane quantities built on top are invariant under it.

Qubits whose Bloch vector vanishes (norm <= EPS_BLOCH) have no distinguished
z axis; ZeroPolicy selects one. This module provides the mechanism for a
given axis; the "maximize" search over axes lives in the detector, which owns
the objective.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevec import PureState
from .tensor import marginals

# Bloch norms at or below this count as "vanishing": far above rounding noise
# at n <= 20, far below any physically meaningful Bloch length.
EPS_BLOCH = 1e-9

ROTATION_TOL = 1e-10

_Z = np.array([0.0, 0.0, 1.0])

CANONICAL = "canonical"
FIXED_AXIS = "axis"
MAXIMIZE = "maximize"


@dataclass(frozen=True)
class ZeroPolicy:
    """Axis choice for qubits with vanishing Bloch vector.

    canonical: keep the computational z axis (identity frame).
    axis:      rotate the given unit vector to +z.
    maximize:  search over axes for the largest detection value (resolved by
               the detector; ``samples`` random axes per qubit plus the six
               signed coordinate axes, seeded for reproducibility).
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
            if abs(float(np.linalg.norm(self.axis)) - 1.0) > ROTATION_TOL:
                raise ValueError("axis vector must have unit norm")
        if self.mode == MAXIMIZE and self.samples < 1:
            raise ValueError(f"sample count must be >= 1, got {self.samples}")

    @classmethod
    def canonical(cls) -> "ZeroPolicy":
        return cls(CANONICAL)

    @classmethod
    def fixed_axis(cls, axis) -> "ZeroPolicy":
        a = np.asarray(axis, dtype=float)
        norm = float(np.linalg.norm(a))
        if norm == 0.0:
            raise ValueError("axis vector must be nonzero")
        a = a / norm
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


def rotation_to_z(axis) -> np.ndarray:
    """Minimal rotation taking the given direction to +z.

    Rotates about ``axis x z``; returns identity when the direction is +z and
    the rotation by pi about x when it is -z.
    """
    a = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise ValueError("cannot orient the zero vector")
    a = a / norm
    c = a[2]
    v = np.cross(a, _Z)
    v_sq = float(v @ v)
    if v_sq < 1e-30:  # (anti)parallel to z within ~1e-15
        return np.eye(3) if c > 0.0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    # (1-c)/|v|^2 equals 1/(1+c) but stays well-conditioned near antipodal
    return np.eye(3) + vx + (vx @ vx) * ((1.0 - c) / v_sq)


def preferred_frame(b, policy: ZeroPolicy | None = None) -> np.ndarray:
    """Frame mapping Bloch vector ``b`` to +z; ZeroPolicy decides when ``b``
    vanishes (identity for canonical and as the maximize starting point)."""
    policy = policy or ZeroPolicy.canonical()
    b = np.asarray(b, dtype=float)
    if float(np.linalg.norm(b)) > EPS_BLOCH:
        return rotation_to_z(b)
    if policy.mode == FIXED_AXIS:
        return rotation_to_z(policy.axis)
    return np.eye(3)


def preferred_frames(state: PureState, policy: ZeroPolicy | None = None) -> list[np.ndarray]:
    """Preferred frame for every qubit of the state."""
    bloch, _ = marginals(state)
    return [preferred_frame(b, policy) for b in bloch]


def rotate_block(T: np.ndarray, R_k: np.ndarray, R_l: np.ndarray) -> np.ndarray:
    """Two-index tensor transformation T' = R_k T R_l^T."""
    return np.asarray(R_k) @ np.asarray(T) @ np.asarray(R_l).T


def identity_frames(n: int) -> list[np.ndarray]:
    return [np.eye(3) for _ in range(n)]


def is_rotation(R: np.ndarray, tol: float = ROTATION_TOL) -> bool:
    """Orthogonal within tol with determinant +1 within tol."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        return False
    if np.max(np.abs(R.T @ R - np.eye(3))) > tol:
        return False
    return abs(float(np.linalg.det(R)) - 1.0) <= tol


def rotation_from_quaternion(q) -> np.ndarray:
    """Rotation matrix for a unit quaternion (w, x, y, z)."""
    w, x, y, z = (float(v) for v in q)
    v = np.array([x, y, z])
    vx = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + 2.0 * w * vx + 2.0 * (vx @ vx)


def su2_from_rotation(R: np.ndarray) -> np.ndarray:
    """SU(2) element realizing rotation ``R``: the half-angle rotation about
    the same axis, with the quaternion scalar part taken non-negative.

    Applying the returned U to a qubit transforms its correlation indices
    exactly as re-expressing them in the frame ``R``.
    """
    R = np.asarray(R, dtype=float)
    if not is_rotation(R, tol=1e-8):
        raise ValueError("input is not a proper rotation")
    t = float(np.trace(R))
    # Shepperd's method: branch on the largest of (trace, diagonal entries)
    if t >= max(R[0, 0], R[1, 1], R[2, 2]):
        w = np.sqrt(1.0 + t) / 2.0
        x = (R[2, 1] - R[1, 2]) / (4.0 * w)
        y = (R[0, 2] - R[2, 0]) / (4.0 * w)
        z = (R[1, 0] - R[0, 1]) / (4.0 * w)
    elif R[0, 0] >= max(R[1, 1], R[2, 2]):
        x = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) / 2.0
        w = (R[2, 1] - R[1, 2]) / (4.0 * x)
        y = (R[0, 1] + R[1, 0]) / (4.0 * x)
        z = (R[0, 2] + R[2, 0]) / (4.0 * x)
    elif R[1, 1] >= R[2, 2]:
        y = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) / 2.0
        w = (R[0, 2] - R[2, 0]) / (4.0 * y)
        x = (R[0, 1] + R[1, 0]) / (4.0 * y)
        z = (R[1, 2] + R[2, 1]) / (4.0 * y)
    else:
        z = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) / 2.0
        w = (R[1, 0] - R[0, 1]) / (4.0 * z)
        x = (R[0, 2] + R[2, 0]) / (4.0 * z)
        y = (R[1, 2] + R[2, 1]) / (4.0 * z)
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    return np.array(
        [[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]], dtype=np.complex128
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation drawn uniformly from SO(3) (via a random unit quaternion)."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return rotation_from_quaternion(q)
