"""Field of values (classical numerical range) of a single matrix.

Support values of W(c) = {v*cv : |v| = 1} are computed by the rotated
Hermitian eigenvalue method: h(theta) = lambda_max(Herm(e^{-i theta} c)).
"""

from __future__ import annotations

import numpy as np

from . import _batched
from .linalg import as_square_matrix
from .region import SupportRegion, _trusted_region, directions


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
