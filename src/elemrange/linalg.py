"""Dense complex matrix primitives: input validation and Haar unitaries."""

from __future__ import annotations

import numpy as np


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
