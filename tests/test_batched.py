"""The batched kernels must agree with their references to roundoff.

The closed-form 2x2 kernels and the Gram-matrix singular values, at
every n, are checked against LAPACK, and the GEMM form of the elementary
operator against the three-operand contraction and the column-stacking
Kronecker matricization.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemrange import _batched
from elemrange.elemop import KTupleOperator
from elemrange.linalg import haar_unitaries

from oracles import apply_tuple, cayley, matricize, vec


def _random_hermitian(rng, b, n):
    h = rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))
    return (h + np.conj(np.swapaxes(h, -1, -2))) / 2


@pytest.mark.parametrize("n", [2, 3])
def test_top_eigh_matches_lapack(rng, n):
    h = _random_hermitian(rng, 64, n)
    lam, v = _batched.top_eigh(h)
    ref = np.linalg.eigvalsh(h)[:, -1]
    assert np.abs(lam - ref).max() <= 1e-12
    resid = np.einsum("bij,bj->bi", h, v) - lam[:, None] * v
    assert np.abs(resid).max() <= 1e-10
    assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-12


def test_top_eigh_near_degenerate(rng):
    base = _random_hermitian(rng, 32, 2)
    h = np.eye(2)[None] + 1e-13 * base
    lam, v = _batched.top_eigh(h)
    assert np.abs(lam - 1.0).max() <= 1e-12
    assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-12


def test_top_eigh_scalar_matrix():
    h = np.stack([3.0 * np.eye(2), np.zeros((2, 2))]).astype(complex)
    lam, v = _batched.top_eigh(h)
    assert np.allclose(lam, [3.0, 0.0])
    assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_eigh_full_reconstructs(rng, n):
    h = _random_hermitian(rng, 64, n)
    lam, v = _batched.eigh_full(h)
    recon = (v * lam[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    assert np.abs(recon - h).max() <= 1e-12
    assert np.all(np.diff(lam, axis=1) >= -1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_top_svd_matches_lapack(rng, n):
    g = rng.standard_normal((64, n, n)) + 1j * rng.standard_normal((64, n, n))
    sigma, w, v = _batched.top_svd(g)
    ref = np.linalg.svd(g, compute_uv=False)[:, 0]
    assert np.abs(sigma - ref).max() <= 1e-11
    resid = np.einsum("bij,bj->bi", g, v) - sigma[:, None] * w
    assert np.abs(resid).max() <= 1e-10


def test_top_svd_zero_matrix():
    sigma, w, v = _batched.top_svd(np.zeros((3, 2, 2), dtype=complex))
    assert np.all(sigma == 0.0)
    assert np.abs(np.linalg.norm(w, axis=1) - 1.0).max() == 0.0


def test_sigma_max_matches_svd(rng):
    for n in range(1, 6):
        g = rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n))
        assert np.abs(
            _batched.sigma_max(g) - np.linalg.svd(g, compute_uv=False)[:, 0]
        ).max() <= 1e-12


def _random_skew(rng, b, n):
    k = rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))
    return (k - np.conj(np.swapaxes(k, -1, -2))) / 2


def test_skew_exp_unitary(rng):
    # The Cayley retraction of a unitary is unitary, at every n and step.
    for n in range(1, 6):
        k = _random_skew(rng, 32, n)
        t = rng.uniform(-2, 2, size=32)
        u = _batched.apply_skew_exp(haar_unitaries(n, 32, rng), _batched.skew_exp_factors(k), t)
        err = np.abs(np.conj(np.swapaxes(u, -1, -2)) @ u - np.eye(n)).max()
        assert err <= 1e-14


def test_skew_exp_matches_series(rng):
    # The Cayley retraction agrees with exp(tK) through second order in t;
    # their third-order terms differ by t^3 K^3 / 12, and the rest is
    # below (t |K|)^4 / 6.
    from scipy.linalg import expm

    for n in (2, 3):
        k = _random_skew(rng, 1, n)[0]
        t = 1e-2
        eye = np.eye(n, dtype=complex)[None]
        got = _batched.apply_skew_exp(eye, _batched.skew_exp_factors(k[None]), np.array([t]))[0]
        rest = got - expm(t * k) - t**3 * np.linalg.matrix_power(k, 3) / 12
        assert np.abs(rest).max() <= (t * np.linalg.norm(k)) ** 4 / 6


def test_cayley_closed_form_matches_solve(rng):
    # The n = 2 adjugate form against the single-matrix solve, at steps up
    # to the ascent's cap t |K|_F = pi.
    k = _random_skew(rng, 64, 2)
    t = rng.uniform(-np.pi, np.pi, size=64) / np.linalg.norm(k, axis=(1, 2))
    u = haar_unitaries(2, 64, rng)
    got = _batched.apply_skew_exp(u, _batched.skew_exp_factors(k), t)
    want = np.stack([ui @ cayley(ki, ti) for ui, ki, ti in zip(u, k, t)])
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps


_SCALES = st.sampled_from([0.0, 1e-6, 1.0, 1e6])


def _stack(rng, shape, scale):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 5),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    a_scale=_SCALES,
    b_scale=_SCALES,
    x_scale=_SCALES,
)
def test_elementary_matrix_matches_contraction(n, k, seed, a_scale, b_scale, x_scale):
    rng = np.random.default_rng(seed)
    a = _stack(rng, (k, n, n), a_scale)
    b = _stack(rng, (k, n, n), b_scale)
    x = _stack(rng, (3, n, n), x_scale)
    y = _stack(rng, (3, n, n), x_scale)
    r = _batched.ElementaryMatrix([(a, b)])
    rx, ry = r.apply(x), r.adjoint(y)

    # Roundoff is relative to sum_i |a_i| |x| |b_i| (Frobenius), which bounds
    # every entry of R(x) before cancellation.
    ab = float(sum(np.linalg.norm(a[i]) * np.linalg.norm(b[i]) for i in range(k)))
    xn = np.linalg.norm(x, axis=(1, 2))
    yn = np.linalg.norm(y, axis=(1, 2))
    tol = 1e-12 * ab

    err = np.linalg.norm(rx - apply_tuple(a, b, x), axis=(1, 2))
    assert np.all(err <= tol * xn)
    ah, bh = np.conj(np.swapaxes(a, -1, -2)), np.conj(np.swapaxes(b, -1, -2))
    err = np.linalg.norm(ry - apply_tuple(ah, bh, y), axis=(1, 2))
    assert np.all(err <= tol * yn)

    m = matricize(KTupleOperator(a, b))
    for i in range(3):
        assert np.linalg.norm(vec(rx[i]) - m @ vec(x[i])) <= tol * xn[i]
        assert np.linalg.norm(vec(ry[i]) - np.conj(m.T) @ vec(y[i])) <= tol * yn[i]

    # Adjoint identity: Re tr(R(x) y*) = Re tr(x R*(y)*).
    lhs = np.real(np.sum(rx * np.conj(y), axis=(1, 2)))
    rhs = np.real(np.sum(x * np.conj(ry), axis=(1, 2)))
    assert np.all(np.abs(lhs - rhs) <= tol * xn * yn)


@pytest.mark.parametrize("a_scale,b_scale", [(1.0, 1.0), (0.0, 1.0), (1e150, 1e-150),
                                             (1e150, 1.0), (1e-150, 1.0)])
def test_mm_matches_matmul_at_n2(rng, a_scale, b_scale):
    a = _stack(rng, (64, 2, 2), a_scale)
    b = _stack(rng, (64, 2, 2), b_scale)
    # Errors are measured relative to |a||b| before squaring, so that no
    # norm underflows at 1e-150.
    size = np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(b, axis=(1, 2))
    size = np.where(size == 0.0, 1.0, size)[:, None, None]
    for left in (a, np.conj(np.swapaxes(a, -1, -2))):
        err = np.linalg.norm((_batched.mm(left, b) - left @ b) / size, axis=(1, 2))
        assert np.all(err <= 4 * np.finfo(float).eps)


@pytest.mark.parametrize("n", [1, 3, 4, 5])
def test_mm_is_matmul_at_other_n(rng, n):
    a = _stack(rng, (20, n, n), 1.0)
    b = _stack(rng, (20, n, n), 1.0)
    assert np.array_equal(_batched.mm(a, b), a @ b)
    ah = np.conj(np.swapaxes(a, -1, -2))
    assert np.array_equal(_batched.mm(ah, b), ah @ b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    count=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 1e-150, 1.0, 1e150]),
    adjoint=st.booleans(),
)
def test_mm_row_bits_do_not_depend_on_the_stack(count, seed, scale, adjoint):
    # The ascent's solo-equals-batch contract: a row's product is the same
    # whether it is computed alone or inside any stack.
    rng = np.random.default_rng(seed)
    a = _stack(rng, (count, 2, 2), scale)
    b = _stack(rng, (count, 2, 2), 1.0)
    if adjoint:
        a = np.conj(np.swapaxes(a, -1, -2))
    full = _batched.mm(a, b)
    for i in range(count):
        assert np.array_equal(_batched.mm(a[i : i + 1], b[i : i + 1]), full[i : i + 1])
    cut = count // 2
    assert np.array_equal(_batched.mm(a[cut:], b[cut:]), full[cut:])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 5),
    count=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 1e-150, 1.0, 1e150]),
)
def test_cayley_row_bits_do_not_depend_on_the_stack(n, count, seed, scale):
    # As for mm: a row's retraction is the same alone or inside any stack,
    # at steps up to the ascent's cap t |K|_F = pi.
    rng = np.random.default_rng(seed)
    k = _random_skew(rng, count, n)
    t = np.minimum(1.0, np.pi / (scale * np.linalg.norm(k, axis=(1, 2)) + 1e-300))
    t *= rng.uniform(-1, 1, count)
    u = haar_unitaries(n, count, rng)
    h = _batched.skew_exp_factors(scale * k)
    full = _batched.apply_skew_exp(u, h, t)
    for i in range(count):
        assert np.array_equal(_batched.apply_skew_exp(u[i : i + 1], h[i : i + 1], t[i : i + 1]),
                              full[i : i + 1])
    cut = count // 2
    assert np.array_equal(_batched.apply_skew_exp(u[cut:], h[cut:], t[cut:]), full[cut:])


def _rel_norm(x, size):
    """Frobenius norm of each row of x over its size; no square overflows."""
    return np.linalg.norm((x / size.reshape(-1, *([1] * (x.ndim - 1)))).reshape(len(x), -1), axis=1)


def _check_svd_kernels(g):
    """sigma_max and top_svd on the stack g against LAPACK's svd."""
    sref = np.linalg.svd(g, compute_uv=False)[:, 0]
    assert np.all(np.abs(_batched.sigma_max(g) - sref) <= 1e-12 * sref)
    sigma, w, v = _batched.top_svd(g)
    assert np.all(np.abs(sigma - sref) <= 1e-12 * sref)
    resid = np.einsum("bij,bj->bi", g, v) - sigma[:, None] * w
    assert np.all(_rel_norm(resid, sref) <= 1e-12)
    for vec in (w, v):
        assert np.abs(np.linalg.norm(vec, axis=1) - 1.0).max() <= 1e-12


def _check_n2_kernels(g, h):
    """The n = 2 kernels on g (general) and h (Hermitian) against LAPACK."""
    _check_svd_kernels(g)
    lref = np.linalg.eigvalsh(h)
    size = np.abs(lref).max(axis=1)
    assert np.all(np.abs(_batched.eigvals_max(h) - lref[:, -1]) <= 1e-12 * size)
    lam, vec = _batched.top_eigh(h)
    assert np.all(np.abs(lam - lref[:, -1]) <= 1e-12 * size)
    resid = np.einsum("bij,bj->bi", h, vec) - lam[:, None] * vec
    assert np.all(_rel_norm(resid, size) <= 1e-12)
    lam, vecs = _batched.eigh_full(h)
    assert np.all(np.abs(lam - lref).max(axis=1) <= 1e-12 * size)
    recon = (vecs * lam[:, None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    assert np.all(_rel_norm(recon - h, size) <= 1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-100, 1e100, 1e150, 1e300])
def test_n2_kernels_at_extreme_scale(rng, scale):
    g = _stack(rng, (32, 2, 2), 1.0)
    _check_n2_kernels(scale * g, scale * _random_hermitian(rng, 32, 2))
    # The singular values come from the Gram matrix at every n.
    for n in (3, 4):
        _check_svd_kernels(scale * _stack(rng, (32, n, n), 1.0))


def test_n2_kernels_on_the_zero_matrix():
    z = np.zeros((3, 2, 2), dtype=complex)
    assert np.all(_batched.eigvals_max(z) == 0.0)
    for lam in (_batched.top_eigh(z)[0], _batched.eigh_full(z)[0]):
        assert np.all(lam == 0.0)
    assert np.abs(np.linalg.norm(_batched.top_eigh(z)[1], axis=1) - 1.0).max() == 0.0
    for n in (2, 3, 4):
        z = np.zeros((3, n, n), dtype=complex)
        assert np.all(_batched.sigma_max(z) == 0.0)
        sigma, w, v = _batched.top_svd(z)
        assert np.all(sigma == 0.0)
        for vec in (w, v):
            assert np.abs(np.linalg.norm(vec, axis=1) - 1.0).max() == 0.0


def _mixed(x):
    """x beside its copies at 1e300 and 1e-300, then one zero matrix."""
    return np.concatenate([x, 1e300 * x, 1e-300 * x, np.zeros((1, *x.shape[1:]))])


def test_n2_kernels_rescale_only_the_rows_outside_the_window(rng):
    # A unit-scale row keeps its bits beside rows that need rescaling.
    g = _stack(rng, (8, 2, 2), 1.0)
    h = _random_hermitian(rng, 8, 2)
    cases = [
        (_batched.eigvals_max, h),
        (_batched.top_eigh, h),
        (_batched.eigh_full, h),
    ]
    gs = [g, *(_stack(rng, (8, n, n), 1.0) for n in (3, 4))]
    for x in gs:
        cases += [(_batched.sigma_max, x), (_batched.top_svd, x)]
    for kernel, x in cases:
        alone, inside = kernel(x), kernel(_mixed(x))
        if not isinstance(alone, tuple):
            alone, inside = (alone,), (inside,)
        for one, many in zip(alone, inside):
            assert np.array_equal(one, many[:8])
    _check_n2_kernels(_mixed(g)[:-1], _mixed(h)[:-1])
    for x in gs[1:]:
        _check_svd_kernels(_mixed(x)[:-1])
