"""Batched linear-algebra kernels for stacks of small matrices.

The unitary ascent engine evaluates objectives on stacks of shape
(B, n, n).  The elementary operator R(x) = sum_i a_i x b_i and its adjoint
are applied as one matrix product against the n^2 x n^2 matrix of R
(``ElementaryMatrix``), B n^4 multiply-adds per call whatever the tuple
length k; a stack may hold the operands of several instances, each
multiplied by its own matrix.  For n = 2 the top eigenpairs have closed
forms that are an order of magnitude faster than per-matrix LAPACK calls,
and stacked products (``mm``) are broadcast multiply-adds, which avoid one
BLAS call per matrix; larger n falls back to numpy.linalg and ``@``.  At
every n the top singular pair comes from the top eigenpair of the Gram
matrix G*G and one product G v, never from an SVD.  The closed forms and
the Gram matrix rescale rows of extreme magnitude by exact powers of two,
so they hold over the whole floating-point range.  The ascent's retraction
is the Cayley map, one small solve per trial (a closed form at n = 2),
which needs no rescaling under the ascent's step cap.  All kernels are pure
and deterministic, and every kernel but ``ElementaryMatrix`` gives each row
the bits it gets alone.
"""

from __future__ import annotations

import numpy as np


class ElementaryMatrix:
    """x -> sum_i a_i x b_i and its adjoint as dense n^2 x n^2 matrices.

    With vec the row-major stacking, vec(a x b) = (a kron b^T) vec(x), so
    R has the matrix M = sum_i a_i kron b_i^T and the adjoint
    R*(y) = sum_i a_i* y b_i* has M*.  Applying either to a stack of B
    operands is one GEMM of B n^4 multiply-adds, against B k n^4 for the
    three-operand contraction; M itself is built once, in k n^4.

    One object holds the operators of a batch of I instances, given as
    ``tuples`` of (a, b) stacks.  Their operands share one stack, where the
    rows of instance i are contiguous from ``offsets[i]`` on.  ``apply``
    and ``adjoint`` take the sorted stack indices ``idx`` of the rows
    passed (None: the whole stack), split them per instance and run one
    GEMM per instance on exactly its rows: a GEMM's bits can depend on its
    row count (at n = 4 they do), so an instance gets the bits it gets
    when run alone.
    """

    def __init__(self, tuples, offsets=(0,)):
        self.n = tuples[0][0].shape[-1]
        self._mt, self._mc = [], []
        for a, b in tuples:
            m = np.einsum("kij,klm->imjl", a, b).reshape(self.n**2, self.n**2)
            # Operands are row vectors vec(x)^T, so R acts as vec(x)^T M^T
            # and R* as vec(y)^T conj(M).
            self._mt.append(np.ascontiguousarray(m.T))
            self._mc.append(np.conj(m))
        self._bounds = np.asarray(offsets[1:])

    def _gemm(self, x, mats, idx):
        flat = x.reshape(-1, self.n**2)
        cuts = self._bounds if idx is None else np.searchsorted(idx, self._bounds)
        out = np.empty_like(flat)
        for m, lo, hi in zip(mats, [0, *cuts], [*cuts, len(flat)]):
            if hi > lo:
                np.matmul(flat[lo:hi], m, out=out[lo:hi])
        return out.reshape(x.shape)

    def apply(self, x, idx=None) -> np.ndarray:
        """R_i(x) for the rows idx of the stack, each with its instance's R_i."""
        return self._gemm(x, self._mt, idx)

    def adjoint(self, y, idx=None) -> np.ndarray:
        """R_i*(y) = sum a_i* y b_i* for the rows idx, as ``apply``."""
        return self._gemm(y, self._mc, idx)


def _herm(c, phase) -> np.ndarray:
    """Herm(phase c) = (phase c + (phase c)*) / 2 for a stack c; phase is a
    scalar or broadcasts against the stack, e.g. e^{-i theta} of shape (B, 1, 1)."""
    rc = phase * c
    return (rc + np.conj(np.swapaxes(rc, -1, -2))) / 2.0


def mm(a, b) -> np.ndarray:
    """a @ b for stacks of square matrices.

    At n = 2 the product is two broadcast multiply-adds over the whole
    stack, where ``@`` would make one BLAS call per matrix; each row's bits
    depend on that row alone.  Every other n returns exactly ``a @ b``.
    """
    if a.shape[-1] == 2:
        out = a[..., :, 0, None] * b[..., None, 0, :]
        out += a[..., :, 1, None] * b[..., None, 1, :]
        return out
    return a @ b


# The n = 2 closed forms square a matrix's entries once (eigenvalues), and
# the singular values square them once more at every n, through the Gram
# matrix G*G, so these kernels can overflow, or lose digits to underflow, on
# a row whose largest entry lies outside these windows.  They run with those
# floating-point exceptions raised; when one fires, the rows outside the
# window are computed again from their input scaled by an exact power of two.
# That scales every step of the arithmetic exactly, so the result is the
# same as at unit scale, and every other row keeps its bits.
_EIG2_WINDOW = (2.0**-470, 2.0**500)
_SVD_WINDOW = (2.0**-235, 2.0**249)


def _rescaled(form, x, window):
    """form(x) = (values, *vectors) for a stack x of square matrices, where
    the values scale with x and the vectors do not, safe at any scale."""
    try:
        with np.errstate(over="raise", under="raise", invalid="raise"):
            return form(x)
    except FloatingPointError:
        pass
    big = np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=(-2, -1))
    # frexp gives exponent 0 for zero, infinite and NaN rows: left as they are.
    e = np.frexp(big)[1] * ((big < window[0]) | (big > window[1]))
    scaled = np.empty(x.shape, dtype=complex)
    scaled.real = np.ldexp(x.real, -e[..., None, None])
    scaled.imag = np.ldexp(x.imag, -e[..., None, None])
    values, *vectors = form(scaled)
    return np.ldexp(values, e.reshape(e.shape + (1,) * (values.ndim - e.ndim))), *vectors


def _eig2_parts(h):
    h00 = h[..., 0, 0].real
    h11 = h[..., 1, 1].real
    h01 = h[..., 0, 1]
    mid = 0.5 * (h00 + h11)
    half = 0.5 * (h00 - h11)
    disc = np.sqrt(half * half + h01.real**2 + h01.imag**2)
    return mid, half, disc, h01


def _top_vec2(half, disc, h01):
    # Branch on sign(half) so the chosen eigenvector component disc +/- half
    # never cancels; the remaining degenerate case is a scalar matrix, where
    # any unit vector is valid.
    big = half >= 0
    v0 = np.where(big, (disc + half).astype(complex), h01)
    v1 = np.where(big, np.conj(h01), (disc - half).astype(complex))
    nrm = np.sqrt(v0.real**2 + v0.imag**2 + v1.real**2 + v1.imag**2)
    zero = nrm == 0.0
    safe = np.where(zero, 1.0, nrm)
    v = np.empty(half.shape + (2,), dtype=complex)
    v[..., 0] = np.where(zero, 1.0 + 0j, v0 / safe)
    v[..., 1] = np.where(zero, 0.0 + 0j, v1 / safe)
    return v


def _eigvals_max2(h):
    mid, _, disc, _ = _eig2_parts(h)
    return (mid + disc,)


def _top_eigh2(h):
    mid, half, disc, h01 = _eig2_parts(h)
    return mid + disc, _top_vec2(half, disc, h01)


def _sigma_max_gram(g):
    return (np.sqrt(np.maximum(eigvals_max(_gram(g)), 0.0)),)


def _top_svd_gram(g):
    lam, v = top_eigh(_gram(g))
    sigma = np.sqrt(np.maximum(lam, 0.0))
    w = np.einsum("...ij,...j->...i", g, v)
    wn = np.sqrt(np.sum(w.real**2 + w.imag**2, axis=-1))
    zero = wn == 0.0
    safe = np.where(zero, 1.0, wn)
    w = w / safe[..., None]
    if np.any(zero):
        e0 = np.zeros_like(w)
        e0[..., 0] = 1.0
        w = np.where(zero[..., None], e0, w)
    return sigma, w, v


def eigvals_max(h) -> np.ndarray:
    """Largest eigenvalue of each Hermitian matrix in the stack."""
    if h.shape[-1] == 2:
        return _rescaled(_eigvals_max2, h, _EIG2_WINDOW)[0]
    return np.linalg.eigvalsh(h)[..., -1]


def top_eigh(h):
    """(lam_max, unit eigenvector) for each Hermitian matrix in the stack."""
    if h.shape[-1] == 2:
        return _rescaled(_top_eigh2, h, _EIG2_WINDOW)
    w, v = np.linalg.eigh(h)
    return w[..., -1], v[..., :, -1]


def eigh_full(h):
    """Full eigendecomposition (ascending) of each Hermitian matrix, by
    LAPACK at every n.

    The program no longer calls it; the tests check it, and the benchmark's
    kernel timings look it up by name.
    """
    return np.linalg.eigh(h)


def sigma_max(g) -> np.ndarray:
    """Largest singular value of each matrix in the stack."""
    return _rescaled(_sigma_max_gram, g, _SVD_WINDOW)[0]


def _gram(g):
    """G*G for each matrix in the stack; at n = 2 with a real diagonal."""
    if g.shape[-1] != 2:
        return mm(np.conj(np.swapaxes(g, -1, -2)), g)
    g00, g01 = g[..., 0, 0], g[..., 0, 1]
    g10, g11 = g[..., 1, 0], g[..., 1, 1]
    m = np.empty(g.shape, dtype=complex)
    m[..., 0, 0] = g00.real**2 + g00.imag**2 + g10.real**2 + g10.imag**2
    m[..., 1, 1] = g01.real**2 + g01.imag**2 + g11.real**2 + g11.imag**2
    m[..., 0, 1] = np.conj(g00) * g01 + np.conj(g10) * g11
    m[..., 1, 0] = np.conj(m[..., 0, 1])
    return m


def top_svd(g):
    """(sigma_max, left vector w, right vector v) with G v = sigma w."""
    return _rescaled(_top_svd_gram, g, _SVD_WINDOW)


def skew_exp_factors(k):
    """The step-independent factor H = K/2 of the Cayley retraction along a
    stack of skew-Hermitian directions K (see ``apply_skew_exp``).

    This kernel and ``apply_skew_exp`` keep the names of the exponential
    retraction that the Cayley map replaced, which the benchmark's kernel
    timings look up.
    """
    return 0.5 * k


def apply_skew_exp(u, h, t):
    """The Cayley retraction u (I - tH)^-1 (I + tH), with H = K/2 from
    ``skew_exp_factors``; t has shape (B,).

    For skew-Hermitian K this is u times the Cayley transform of tK, a
    unitary that agrees with exp(tK) to second order in t.  It is formed as
    2 Z - u with Z (I - tH) = u: one small solve per trial and no product.
    I - tH has eigenvalues 1 - i mu with mu real, so its determinant has
    modulus at least 1, and while t |H| is of order one (the ascent caps
    t |K|_F at pi) no entry overflows, so the n = 2 closed form, the
    adjugate over the determinant, needs no rescaling.  Every other n calls
    np.linalg.solve, one LAPACK solve per row; either way each row's bits
    depend on that row alone.
    """
    x = t[:, None, None] * h
    if u.shape[-1] == 2:
        m00, m11 = 1.0 - x[:, 0, 0], 1.0 - x[:, 1, 1]
        scale = 2.0 / (m00 * m11 - x[:, 0, 1] * x[:, 1, 0])
        adj = np.empty_like(x)
        adj[:, 0, 0], adj[:, 0, 1] = scale * m11, scale * x[:, 0, 1]
        adj[:, 1, 0], adj[:, 1, 1] = scale * x[:, 1, 0], scale * m00
        return mm(u, adj) - u
    eye = np.eye(u.shape[-1], dtype=complex)
    z = np.linalg.solve(eye - np.swapaxes(x, -1, -2), np.swapaxes(u, -1, -2))
    return 2.0 * np.swapaxes(z, -1, -2) - u
