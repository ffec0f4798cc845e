import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemrange.elemop import KTupleOperator, random_instance, russo_dye_norm, shifted_norm
from elemrange.linalg import haar_unitary
from elemrange.unitary_opt import OptConfig, ShiftedNormObjective, maximize_grouped

from oracles import apply, apply_batched, grid_norm, matricize, spectral_norm, su2_grid, vec

E11 = np.diag([1.0, 0.0])
E22 = np.diag([0.0, 1.0])
CFG = OptConfig(restarts=6, seed=0)


class TestKTupleOperator:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            KTupleOperator(np.zeros((1, 2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            KTupleOperator(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))

    def test_rejects_empty_matrices(self):
        # A 0 x 0 tuple would fail only deep inside the orbit side's Haar draws.
        with pytest.raises(ValueError, match="dimension n must be >= 1"):
            KTupleOperator(np.zeros((1, 0, 0)), np.zeros((1, 0, 0)))

    @pytest.mark.parametrize(
        "a, message",
        [
            (np.zeros((1, 1, 2, 2)), "a and b must be stacks of square matrices"),
            (np.zeros((0, 2, 2)), "tuple length k must be >= 1"),
            (np.array([[[1.0, 0.0], [np.nan, 1.0]]]), "operator tuples have non-finite entries"),
        ],
        ids=["4-d", "k=0", "nan"],
    )
    def test_rejections_name_what_is_wrong(self, a, message):
        b = np.zeros(a.shape)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KTupleOperator(a, b)

    def test_single_matrix_promotes(self):
        r = KTupleOperator(np.eye(2), np.eye(2))
        assert r.k == 1 and r.n == 2

    def test_derivation_encoding(self, rng):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        d = KTupleOperator.derivation(a, b)
        x = rng.standard_normal((2, 2))
        assert np.allclose(apply(d, x), a @ x - x @ b)

    def test_translated(self, rng):
        r = random_instance(2, 2, rng)
        x = rng.standard_normal((2, 2))
        shifted = r.translated(0.5 - 2j)
        assert np.allclose(apply(shifted, x), apply(r, x) + (0.5 - 2j) * x)


class TestApply:
    def test_identity_tuple(self, rng):
        r = KTupleOperator.identity(3)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(apply(r, x), x)

    def test_rank_one_compression(self, rng):
        r = KTupleOperator(E11[None], E22[None])
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 1] = x[0, 1]
        assert np.allclose(apply(r, x), expected)

    def test_dimension_mismatch(self):
        r = KTupleOperator.identity(2)
        with pytest.raises(ValueError):
            apply(r, np.eye(3))

    def test_batched_agrees(self, rng):
        r = random_instance(3, 2, rng)
        xs = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        batched = apply_batched(r, xs)
        for i in range(5):
            assert np.allclose(batched[i], apply(r, xs[i]))


class TestMatricize:
    def test_identity(self):
        assert np.allclose(matricize(KTupleOperator.identity(2)), np.eye(4))

    def test_rank_one_position(self):
        r = KTupleOperator(E11[None], E11[None])
        m = matricize(r)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(m, expected)

    def test_left_multiplication_diagonal(self):
        r = KTupleOperator(np.diag([2.0, 1.0])[None], np.eye(2)[None])
        assert np.allclose(matricize(r), np.diag([2.0, 1.0, 2.0, 1.0]))

    def test_apply_consistency_random(self, rng):
        # Column-stacking identity on 100 random (operator, operand) pairs.
        for _ in range(100):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(1, 4))
            r = random_instance(n, k, rng)
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lhs = vec(apply(r, x))
            rhs = matricize(r) @ vec(x)
            scale = max(1.0, np.abs(lhs).max())
            assert np.abs(lhs - rhs).max() <= 1e-12 * scale


class TestRussoDyeNorm:
    def test_identity_operator(self):
        rep = russo_dye_norm([KTupleOperator.identity(2)], CFG)[0]
        assert rep.value == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_product(self):
        r = KTupleOperator(np.diag([2.0, 1.0])[None], np.diag([3.0, 1.0])[None])
        rep = russo_dye_norm([r], CFG)[0]
        assert rep.value == pytest.approx(6.0, abs=1e-8)
        assert rep.value >= grid_norm(r.a, r.b) - 1e-9

    def test_derivation_diag01(self):
        a = np.diag([0.0, 1.0])
        d = KTupleOperator.derivation(a, a)
        rep = russo_dye_norm([d], CFG)[0]
        assert rep.value == pytest.approx(1.0, abs=1e-8)
        # The flip permutation is a witness.
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert spectral_norm(a @ flip - flip @ a) == pytest.approx(1.0)

    def test_beats_su2_grid(self, rng):
        grid = su2_grid(17, 16)
        for _ in range(3):
            r = random_instance(2, 2, rng)
            rep = russo_dye_norm([r], CFG)[0]
            assert rep.value >= grid_norm(r.a, r.b, grid) - 1e-9

    def test_matricization_sandwich(self, rng):
        for _ in range(5):
            r = random_instance(2, 2, rng)
            rep = russo_dye_norm([r], CFG)[0]
            sigma = spectral_norm(matricize(r))
            eps = 1e-8 * sigma
            assert sigma / np.sqrt(2) - eps <= rep.value <= np.sqrt(2) * sigma + eps

    def test_dominates_unit_ball_samples(self, rng):
        r = random_instance(2, 2, rng)
        rep = russo_dye_norm([r], CFG)[0]
        xs = rng.standard_normal((2000, 2, 2)) + 1j * rng.standard_normal((2000, 2, 2))
        xs /= np.linalg.svd(xs, compute_uv=False)[:, :1][:, :, None]
        vals = np.linalg.svd(apply_batched(r, xs), compute_uv=False)[:, 0]
        assert vals.max() <= rep.value + 1e-6

    def test_value_matches_maximizer(self, rng):
        r = random_instance(2, 2, rng)
        rep = russo_dye_norm([r], CFG)[0]
        recomputed = spectral_norm(apply(r, rep.maximizer))
        assert abs(rep.value - recomputed) <= 1e-10 * max(1.0, abs(rep.value))


class TestShiftedNorm:
    def test_identity_shifted(self):
        rep = shifted_norm([KTupleOperator.identity(2)], 0.5, CFG)[0]
        assert rep.value == pytest.approx(0.5, abs=1e-10)

    def test_zero_operator(self, rng):
        r = KTupleOperator(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
        for z in (0.3, -1j, 2 + 2j):
            rep = shifted_norm([r], z, CFG)[0]
            assert rep.value == pytest.approx(abs(z), abs=1e-10)

    def test_derivation_unshifted(self):
        a = np.diag([0.0, 1.0])
        d = KTupleOperator.derivation(a, a)
        rep = shifted_norm([d], 0.0, CFG)[0]
        assert rep.value == pytest.approx(1.0, abs=1e-8)

    def test_zero_shift_equals_russo_dye(self, rng):
        r = random_instance(2, 2, rng)
        assert shifted_norm([r], 0.0, CFG)[0].value == russo_dye_norm([r], CFG)[0].value

    def test_phase_invariant_starts(self, rng):
        r = random_instance(2, 2, rng)
        u0 = haar_unitary(2, rng)
        alpha = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rep1, rep2 = maximize_grouped(
            ShiftedNormObjective([(r.a, r.b)], 0.7), [0, 1], np.stack([u0, alpha * u0]), CFG
        )
        assert abs(rep1.value - rep2.value) <= 1e-10 * max(1.0, abs(rep1.value))

    @pytest.mark.parametrize("z", [0.0, 0.7 - 0.4j])
    def test_batch_matches_solo_runs(self, z):
        # At n = 3 one GEMM over every row would change the bits; each
        # operator's rows get their own, so each report is the solo one.
        ops = [random_instance(3, 2, np.random.default_rng([21, i])) for i in range(3)]
        for r, many in zip(ops, shifted_norm(ops, z, CFG)):
            one = shifted_norm([r], z, CFG)[0]
            assert one.value == many.value
            assert np.array_equal(one.maximizer, many.maximizer)
            assert one.iterations == many.iterations
            assert np.array_equal(one.start_values, many.start_values)

    def test_determinism(self, rng):
        r = random_instance(2, 2, rng)
        a = shifted_norm([r], 1.0 - 0.5j, CFG)[0]
        b = shifted_norm([r], 1.0 - 0.5j, CFG)[0]
        assert a.value == b.value
        assert np.array_equal(a.maximizer, b.maximizer)


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_russo_dye_norm_edge_inputs(seed):
    # Every (n, k, scale of a) edge case for each drawn seed.
    rng = np.random.default_rng(seed)
    for n in range(1, 5):
        for k in (1, 3):
            base = random_instance(n, k, rng)
            for a_scale in (0.0, 1e-6, 1.0, 1e6):
                _check_norm_bounds(KTupleOperator(a_scale * base.a, base.b))


def _check_norm_bounds(r):
    n = r.n
    value = russo_dye_norm([r])[0].value

    # |x|_op <= |x|_F <= sqrt(n) |x|_op, so the norm on (M_n, |.|_op) lies
    # within a factor sqrt(n) of sigma_max of the matrix of R.
    sigma = spectral_norm(matricize(r))
    assert value >= sigma / np.sqrt(n) * (1 - 1e-9)
    assert value <= np.sqrt(n) * sigma * (1 + 1e-9)

    # The identity is one of the starts and the ascent never descends.
    at_identity = spectral_norm(np.sum(r.a @ r.b, axis=0))
    assert value >= at_identity * (1 - 1e-12)
    if n == 1:
        assert value == pytest.approx(at_identity, rel=1e-12, abs=0.0)
