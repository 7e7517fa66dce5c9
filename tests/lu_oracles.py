"""Oracles for the tests: full 3x3 frame rotations, their action on
correlation blocks, their SU(2) lifts, and a density-matrix check.

The library works with axes only (a frame is its z axis). These helpers keep
the rotation picture as an independent reference: rotating a qubit by the
SU(2) lift of R re-expresses its correlation indices in the frame R.
"""
import numpy as np

from entmon.frames import ROTATION_TOL


def z_axes(n: int) -> np.ndarray:
    """The computational z axis for each of n qubits, shape (n, 3)."""
    return np.tile([0.0, 0.0, 1.0], (n, 1))


def frame_from_axis(axis) -> np.ndarray:
    """A full frame R whose z row is the unit vector ``axis``: the x row is
    the coordinate direction least aligned with it, orthogonalized, and the
    y row completes a right-handed basis."""
    a = np.asarray(axis, dtype=float)
    e = np.eye(3)[int(np.argmin(np.abs(a)))]
    x = e - (e @ a) * a
    x /= np.linalg.norm(x)
    return np.stack([x, np.cross(a, x), a])


def rotate_block(T: np.ndarray, R_k: np.ndarray, R_l: np.ndarray) -> np.ndarray:
    """Two-index tensor transformation T' = R_k T R_l^T."""
    return np.asarray(R_k) @ np.asarray(T) @ np.asarray(R_l).T


def is_rotation(R: np.ndarray, tol: float = ROTATION_TOL) -> bool:
    """Orthogonal within tol with determinant +1 within tol."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        return False
    if np.max(np.abs(R.T @ R - np.eye(3))) > tol:
        return False
    return abs(float(np.linalg.det(R)) - 1.0) <= tol


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


def is_valid_density(rho: np.ndarray, tol: float = 1e-10) -> bool:
    """Hermitian within tol, unit trace within tol, eigenvalues >= -tol."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        return False
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        return False
    return bool(np.min(np.linalg.eigvalsh(rho)) >= -tol)
