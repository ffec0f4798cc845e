import numpy as np
import pytest

from elemrange.linalg import MatrixShapeError, as_square_matrix, haar_unitaries, haar_unitary

from oracles import EigenPair, hermitian_part, spectral_norm, top_eigenpair

JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]])


class TestHermitianPart:
    def test_theta_zero(self):
        out = hermitian_part(JORDAN, 0.0)
        assert np.allclose(out, [[0, 0.5], [0.5, 0]])

    def test_theta_quarter_turn(self):
        out = hermitian_part(JORDAN, np.pi / 2)
        assert np.allclose(out, [[0, -0.5j], [0.5j, 0]])

    def test_identity_any_angle(self, rng):
        for theta in rng.uniform(0, 2 * np.pi, 5):
            out = hermitian_part(np.eye(3), theta)
            assert np.allclose(out, np.cos(theta) * np.eye(3))

    def test_always_hermitian(self, rng):
        for _ in range(20):
            c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            theta = rng.uniform(0, 2 * np.pi)
            h = hermitian_part(c, theta)
            scale = np.abs(c).max()
            assert np.abs(h - h.conj().T).max() <= 1e-14 * scale

    def test_rejects_non_square(self):
        with pytest.raises(MatrixShapeError):
            hermitian_part(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(MatrixShapeError):
            as_square_matrix([[np.nan, 0], [0, 1]])


class TestTopEigenpair:
    def test_offdiag_half(self):
        pair = top_eigenpair([[0, 0.5], [0.5, 0]])
        assert pair.value == pytest.approx(0.5, abs=1e-14)

    def test_diag(self):
        pair = top_eigenpair(np.diag([3.0, 1.0]))
        assert pair.value == pytest.approx(3.0)
        assert np.abs(np.abs(pair.vector[0]) - 1.0) < 1e-12

    def test_zero(self):
        assert top_eigenpair(np.zeros((4, 4))).value == 0.0

    def test_invariants(self, rng):
        for _ in range(20):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (h + h.conj().T) / 2
            pair = top_eigenpair(h)
            assert isinstance(pair, EigenPair)
            assert abs(np.linalg.norm(pair.vector) - 1.0) <= 1e-12
            resid = np.linalg.norm(h @ pair.vector - pair.value * pair.vector)
            assert resid <= 1e-9 * max(1.0, spectral_norm(h))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            top_eigenpair(JORDAN)


class TestSpectralNorm:
    def test_diag(self):
        assert spectral_norm(np.diag([2.0, -1.0])) == pytest.approx(2.0)

    def test_jordan(self):
        assert spectral_norm(JORDAN) == pytest.approx(1.0)

    def test_rank_one(self):
        assert spectral_norm(np.ones((2, 2))) == pytest.approx(2.0)

    def test_matches_gram_eigenvalue(self, rng):
        for _ in range(10):
            c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            lam = np.linalg.eigvalsh(c.conj().T @ c)[-1]
            assert spectral_norm(c) == pytest.approx(np.sqrt(lam), rel=1e-12)


class TestHaarUnitary:
    def test_scalar_case(self, rng):
        u = haar_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_unitarity(self, rng):
        for n in (1, 2, 3, 5):
            u = haar_unitary(n, rng)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n), 2) <= 1e-10

    def test_same_seed_same_matrix(self):
        u1 = haar_unitary(3, np.random.default_rng(42))
        u2 = haar_unitary(3, np.random.default_rng(42))
        assert np.array_equal(u1, u2)

    def test_diagonal_phase_statistics(self):
        # Haar columns are isotropic: E|u_00|^2 = 1/n.
        rng = np.random.default_rng(7)
        vals = [abs(haar_unitary(3, rng)[0, 0]) ** 2 for _ in range(600)]
        assert np.mean(vals) == pytest.approx(1 / 3, abs=0.04)

    def test_rejects_bad_dimension(self, rng):
        with pytest.raises(ValueError):
            haar_unitary(0, rng)
        with pytest.raises(ValueError):
            haar_unitaries(0, 3, rng)


def _sequential_haar(n, rng):
    """One Ginibre draw and one QR per matrix: the unstacked reference."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    ph = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return q * ph


class TestHaarUnitaries:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bit_identical_to_sequential_draws(self, n):
        for count in (0, 1, 5, 33):
            seq_rng = np.random.default_rng([n, count])
            stacked_rng = np.random.default_rng([n, count])
            ref = [_sequential_haar(n, seq_rng) for _ in range(count)]
            got = haar_unitaries(n, count, stacked_rng)
            assert got.shape == (count, n, n)
            assert got.tobytes() == np.array(ref, dtype=complex).reshape(count, n, n).tobytes()
            assert seq_rng.bit_generator.state == stacked_rng.bit_generator.state

    def test_single_draw_is_first_of_stack(self):
        one = haar_unitary(3, np.random.default_rng(5))
        assert np.array_equal(one, haar_unitaries(3, 4, np.random.default_rng(5))[0])


class TestScalarSupportInequality:
    def test_random_matrices(self, rng):
        # lambda_max(Herm(e^{-i t} c)) <= |c + s e^{i t} I| - s for all s > 0.
        for _ in range(30):
            n = rng.integers(2, 5)
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            theta = rng.uniform(0, 2 * np.pi)
            s = rng.uniform(0.1, 50.0)
            lhs = top_eigenpair(hermitian_part(c, theta)).value
            rhs = spectral_norm(c + s * np.exp(1j * theta) * np.eye(n)) - s
            assert lhs <= rhs + 1e-10

    def test_support_inside_norm_disk(self, rng):
        for _ in range(20):
            c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            theta = rng.uniform(0, 2 * np.pi)
            assert top_eigenpair(hermitian_part(c, theta)).value <= spectral_norm(c) + 1e-12
