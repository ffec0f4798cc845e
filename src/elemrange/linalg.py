"""Dense complex matrix primitives: Hermitian parts, eigenpairs, norms, Haar unitaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Structural tolerances gate type invariants, not science results.
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10


class MatrixShapeError(ValueError):
    """Input is not a finite square complex matrix of the expected size."""


def as_square_matrix(c, name: str = "matrix") -> np.ndarray:
    """Validate and return ``c`` as a square complex128 array."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 1:
        raise MatrixShapeError(f"{name} must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise MatrixShapeError(f"{name} has non-finite entries")
    return c


def hermitian_part(c, theta: float = 0.0) -> np.ndarray:
    """Hermitian part of exp(-i*theta)*c, i.e. (e^{-it}c + e^{it}c*)/2."""
    c = as_square_matrix(c)
    rc = np.exp(-1j * float(theta)) * c
    return (rc + rc.conj().T) / 2.0


def is_hermitian(h, tol: float = HERMITIAN_TOL) -> bool:
    h = as_square_matrix(h)
    scale = max(1.0, float(np.abs(h).max()))
    return float(np.abs(h - h.conj().T).max()) <= tol * scale


def check_hermitian(h, tol: float = HERMITIAN_TOL) -> np.ndarray:
    h = as_square_matrix(h)
    if not is_hermitian(h, tol):
        raise ValueError("matrix is not Hermitian within structural tolerance")
    return h


@dataclass(frozen=True)
class EigenPair:
    """Largest eigenvalue of a Hermitian matrix and a unit eigenvector."""

    value: float
    vector: np.ndarray


def top_eigenpair(h) -> EigenPair:
    """Largest eigenvalue and a unit eigenvector of Hermitian ``h``.

    Ties at the top eigenvalue return an arbitrary vector of the top
    eigenspace; callers must depend only on the value or on v*cv set-wise.
    """
    h = check_hermitian(h)
    w, v = np.linalg.eigh(h)
    return EigenPair(float(w[-1]), np.ascontiguousarray(v[:, -1]))


def spectral_norm(c) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_square_matrix(c), 2))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary from QR of a complex Ginibre matrix."""
    return haar_unitaries(n, 1, rng)[0]


def haar_unitaries(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` Haar unitaries, shape (count, n, n).

    One Gaussian draw and one stacked QR; the result and the generator
    state afterwards are bit-identical to ``count`` successive
    ``haar_unitary`` calls.  The triangular factors' diagonal phases are
    divided out so the distribution is exactly Haar rather than merely
    unitary.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    g = rng.standard_normal((count, 2, n, n))
    z = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    ph = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return q * ph[:, None, :]


def is_unitary(u, tol: float = UNITARY_TOL) -> bool:
    u = as_square_matrix(u)
    eye = np.eye(u.shape[0])
    return (
        float(np.linalg.norm(u.conj().T @ u - eye, 2)) <= tol
        and float(np.linalg.norm(u @ u.conj().T - eye, 2)) <= tol
    )
