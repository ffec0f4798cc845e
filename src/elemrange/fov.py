"""Field of values (classical numerical range) of a single matrix.

Support values of W(c) = {v*cv : |v| = 1} are computed by the rotated
Hermitian eigenvalue method: h(theta) = lambda_max(Herm(e^{-i theta} c)),
with the top eigenvector supplying a boundary witness point v*cv.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _batched
from .linalg import as_square_matrix, hermitian_part, top_eigenpair
from .region import SupportRegion, _trusted_region, directions


@dataclass(frozen=True)
class FovBoundarySample:
    """Support value at one direction plus the witness point realizing it."""

    theta: float
    support: float
    witness: complex


def fov_support(c, theta: float) -> FovBoundarySample:
    """Support of W(c) at angle theta and the boundary witness v*cv."""
    c = as_square_matrix(c)
    pair = top_eigenpair(hermitian_part(c, theta))
    v = pair.vector
    witness = complex(np.vdot(v, c @ v))
    return FovBoundarySample(float(theta), pair.value, witness)


def fov_supports(c, thetas) -> np.ndarray:
    """Support values of W(c) at each angle, computed as one batch."""
    c = as_square_matrix(c)
    th = np.asarray(thetas, dtype=float)
    ph = np.exp(-1j * th)[:, None, None]
    rc = ph * c
    h = (rc + np.conj(np.swapaxes(rc, -1, -2))) / 2.0
    return _batched.eigvals_max(h)


def field_of_values(c, m: int = 720) -> SupportRegion:
    """W(c) sampled at m uniform directions.

    The samples are exact support values of the convex compact W(c), so
    the returned region is canonical by construction and converges to
    W(c) as m grows (Toeplitz-Hausdorff).
    """
    if m < 8:
        raise ValueError("field_of_values needs at least 8 directions")
    return _trusted_region(fov_supports(c, directions(m)))
