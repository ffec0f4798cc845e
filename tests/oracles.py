"""Independent references used to freeze expected test values.

These deliberately avoid the library's optimization, geometry and batched
kernel paths: dense parameter grids over SU(2), random unit-sphere
sampling, interval arithmetic, closed-form ellipse families, and
single-matrix numpy and scipy linear algebra (Hermitian parts, eigenpairs,
spectral norms, the operator applied term by term and its Kronecker
matricization, the skew part of u*E, the derivative along a curve
u exp(tK), and the Cayley transform).  Only input validation is shared
with the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from elemrange.linalg import as_square_matrix

UNITARY_TOL = 1e-10


def hermitian_part(c, theta: float = 0.0) -> np.ndarray:
    """Hermitian part of exp(-i*theta)*c, i.e. (e^{-it}c + e^{it}c*)/2."""
    c = as_square_matrix(c)
    rc = np.exp(-1j * float(theta)) * c
    return (rc + rc.conj().T) / 2.0


@dataclass(frozen=True)
class EigenPair:
    """Largest eigenvalue of a Hermitian matrix and a unit eigenvector."""

    value: float
    vector: np.ndarray


def top_eigenpair(h) -> EigenPair:
    """Largest eigenvalue and a unit eigenvector of Hermitian ``h``."""
    h = as_square_matrix(h)
    if np.abs(h - h.conj().T).max() > 1e-12 * max(1.0, np.abs(h).max()):
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh(h)
    return EigenPair(float(w[-1]), np.ascontiguousarray(v[:, -1]))


def spectral_norm(c) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_square_matrix(c), 2))


def is_unitary(u, tol: float = UNITARY_TOL) -> bool:
    u = as_square_matrix(u)
    eye = np.eye(u.shape[0])
    return (
        float(np.linalg.norm(u.conj().T @ u - eye, 2)) <= tol
        and float(np.linalg.norm(u @ u.conj().T - eye, 2)) <= tol
    )


def apply(r, x) -> np.ndarray:
    """R(x) = sum_i a_i x b_i for a KTupleOperator r."""
    x = as_square_matrix(x, "x")
    if x.shape[0] != r.n:
        raise ValueError(f"operand is {x.shape[0]}x{x.shape[0]}, operator acts on {r.n}x{r.n}")
    return apply_batched(r, x[None])[0]


def apply_batched(r, u) -> np.ndarray:
    """R applied to a stack of operands of shape (B, n, n)."""
    return apply_tuple(r.a, r.b, np.asarray(u))


def matricize(r) -> np.ndarray:
    """The n^2 x n^2 matrix of R under column stacking: sum_i (b_i^T kron a_i).

    With vec the column-major stacking, vec(R(x)) = matricize(R) @ vec(x).
    """
    m = np.zeros((r.n * r.n, r.n * r.n), dtype=complex)
    for i in range(r.k):
        m += np.kron(r.b[i].T, r.a[i])
    return m


def vec(x) -> np.ndarray:
    """Column-major stacking of a matrix into a vector."""
    return np.asarray(x).flatten(order="F")


def tangent_project(u, e) -> np.ndarray:
    """Skew part of u*E for one matrix: the ascent direction in the Lie
    algebra at u of a Euclidean gradient E."""
    m = np.asarray(u).conj().T @ np.asarray(e)
    return (m - m.conj().T) / 2.0


def directional_derivative(objective, u, k) -> float:
    """Derivative of t -> f(u exp(tK)) at t = 0 from the objective's
    Euclidean gradient E: Re tr((skew u*E)* K)."""
    u = np.asarray(u, dtype=complex)
    _, e = objective.value_and_grad(u[None])
    proj = tangent_project(u, e[0])
    kk = np.asarray(k)
    return float(np.sum(proj.real * kk.real + proj.imag * kk.imag))


def finite_difference_directional(objective, u, k, h: float = 1e-4) -> float:
    """Central finite difference of t -> f(u exp(tK)) at t = 0."""
    u = np.asarray(u, dtype=complex)
    k = np.asarray(k, dtype=complex)
    fp = float(objective.value((u @ expm(h * k))[None])[0])
    fm = float(objective.value((u @ expm(-h * k))[None])[0])
    return (fp - fm) / (2.0 * h)


def cayley(k, t: float) -> np.ndarray:
    """The Cayley transform (I - tK/2)^-1 (I + tK/2) of one matrix K."""
    x = 0.5 * t * np.asarray(k)
    eye = np.eye(x.shape[0])
    return np.linalg.solve(eye - x, eye + x)


def su2_grid(n_t: int = 33, n_phase: int = 32) -> np.ndarray:
    """Dense grid over SU(2): [[a, b], [-conj(b), conj(a)]].

    Covers all of SU(2); the objectives in this package are invariant to
    a global phase, so this also covers U(2) for their purposes.
    """
    t = np.linspace(0.0, np.pi / 2, n_t)
    alpha = np.linspace(0.0, 2 * np.pi, n_phase, endpoint=False)
    beta = np.linspace(0.0, 2 * np.pi, n_phase, endpoint=False)
    tt, aa, bb = np.meshgrid(t, alpha, beta, indexing="ij")
    a = np.cos(tt) * np.exp(1j * aa)
    b = np.sin(tt) * np.exp(1j * bb)
    u = np.empty(tt.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = a
    u[..., 0, 1] = b
    u[..., 1, 0] = -np.conj(b)
    u[..., 1, 1] = np.conj(a)
    return u.reshape(-1, 2, 2)


def apply_tuple(a, b, u):
    """sum_i a_i u b_i on a stack of u."""
    return np.einsum("kij,bjl,klm->bim", np.asarray(a), u, np.asarray(b))


def grid_norm(a, b, grid=None) -> float:
    """max over the SU(2) grid of the largest singular value of R(u)."""
    u = su2_grid() if grid is None else grid
    return float(np.linalg.svd(apply_tuple(a, b, u), compute_uv=False)[:, 0].max())


def grid_orbit_support(a, b, theta: float, grid=None) -> float:
    """max over the SU(2) grid of lambda_max(Herm(e^{-i theta} sum u*a_i u b_i))."""
    u = su2_grid() if grid is None else grid
    s = apply_tuple(a, b, u)
    t = np.conj(np.swapaxes(u, -1, -2)) @ s
    rt = np.exp(-1j * theta) * t
    h = (rt + np.conj(np.swapaxes(rt, -1, -2))) / 2.0
    return float(np.linalg.eigvalsh(h)[:, -1].max())


def sphere_fov_support(c, theta: float, n_samples: int = 4000, seed: int = 11) -> float:
    """max Re(e^{-i theta} v*cv) over random unit vectors: a lower bound on h."""
    rng = np.random.default_rng(seed)
    n = c.shape[0]
    v = rng.standard_normal((n_samples, n)) + 1j * rng.standard_normal((n_samples, n))
    v /= np.linalg.norm(v, axis=1)[:, None]
    quad = np.einsum("bi,ij,bj->b", np.conj(v), c, v)
    return float(np.max(np.real(np.exp(-1j * theta) * quad)))


def projection_mult_support(theta: float, n_grid: int = 20001) -> float:
    """Support of the orbit union for x -> p x p with p = diag(1, 0) on M_2.

    The orbit consists of matrices q p with q an arbitrary rank-one
    projection; W(q p) is the ellipse with foci {0, t}, t = |q_11|, and
    minor semi-axis sqrt(t(1-t))/2, so the union's support is a maximum
    over the ellipse family.
    """
    t = np.linspace(0.0, 1.0, n_grid)
    ct, st = np.cos(theta), np.sin(theta)
    major = np.sqrt(t) / 2.0
    minor = np.sqrt(t * (1.0 - t)) / 2.0
    vals = (t / 2.0) * ct + np.sqrt(
        (major * ct) ** 2 + (minor * st) ** 2
    )
    return float(np.max(vals))


def rectangle_support(theta: float) -> float:
    """Support of [0, 1] x [-1, 0] (as a subset of the plane)."""
    return max(np.cos(theta), 0.0) + max(-np.sin(theta), 0.0)


def halfplane_grid_supports(samples, lo=-3.0, hi=3.0, step=0.004):
    """Brute-force support values of the halfplane intersection on a grid.

    Returns None when no grid point is feasible.
    """
    h = np.asarray(samples, dtype=float)
    m = h.shape[0]
    th = 2 * np.pi * np.arange(m) / m
    xs = np.arange(lo, hi + step, step)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([x.ravel(), y.ravel()])
    feas = np.all(
        np.cos(th)[:, None] * pts[0] + np.sin(th)[:, None] * pts[1]
        <= h[:, None] + 1e-9,
        axis=0,
    )
    if not np.any(feas):
        return None
    fx, fy = pts[0][feas], pts[1][feas]
    return np.max(np.cos(th)[:, None] * fx + np.sin(th)[:, None] * fy, axis=1)
