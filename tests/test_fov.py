import numpy as np
import pytest

from elemrange.fov import field_of_values, fov_supports
from elemrange.linalg import haar_unitary
from elemrange.orbit import _fov_witnesses
from elemrange.region import cloud_supports, directions, hausdorff

from oracles import hermitian_part, spectral_norm, sphere_fov_support, top_eigenpair

JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]])


def _witness(c, theta: float) -> complex:
    """The boundary point v*cv of W(c) at theta that the orbit side records."""
    return _fov_witnesses(np.asarray(c, dtype=complex)[None], np.array([theta]))[0]


class TestFovSupport:
    def test_normal_diag(self):
        c = np.diag([0.0, 1.0])
        assert fov_supports(c, [0.0])[0] == pytest.approx(1.0)
        assert _witness(c, 0.0) == pytest.approx(1.0)

    def test_identity(self, rng):
        thetas = rng.uniform(0, 2 * np.pi, 4)
        assert fov_supports(np.eye(2), thetas) == pytest.approx(np.cos(thetas), abs=1e-12)
        for theta in thetas:
            assert _witness(np.eye(2), theta) == pytest.approx(1.0)

    def test_jordan_block_constant_half(self, rng):
        # Sphere-sampling oracle: the support is 1/2 in every direction.
        thetas = rng.uniform(0, 2 * np.pi, 6)
        for theta, support in zip(thetas, fov_supports(JORDAN, thetas)):
            assert support == pytest.approx(0.5, abs=1e-12)
            lower = sphere_fov_support(JORDAN, theta)
            assert lower <= support + 1e-9
            assert lower >= support - 2e-3

    def test_witness_realizes_support(self, rng):
        for _ in range(10):
            c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            theta = rng.uniform(0, 2 * np.pi)
            support = fov_supports(c, [theta])[0]
            realized = np.real(np.exp(-1j * theta) * _witness(c, theta))
            assert abs(realized - support) <= 1e-9 * spectral_norm(c)


class TestFieldOfValues:
    def test_normal_matrix_is_eigenvalue_hull(self):
        reg = field_of_values(np.diag([0.0, 1.0]), 16)
        expected = cloud_supports(np.array([0.0, 1.0]), 16)
        assert np.abs(reg.support - expected).max() <= 1e-12

    def test_jordan_is_disk(self):
        reg = field_of_values(JORDAN, 64)
        assert np.abs(reg.support - 0.5).max() <= 1e-8

    def test_scalar_point(self):
        reg = field_of_values(np.diag([1.0, 1.0]), 16)
        assert np.abs(reg.support - np.cos(directions(16))).max() <= 1e-12

    def test_unitary_invariance(self, rng):
        for _ in range(5):
            c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            u = haar_unitary(3, rng)
            a = field_of_values(c, 32)
            b = field_of_values(u.conj().T @ c @ u, 32)
            assert hausdorff(a, b) <= 1e-8 * spectral_norm(c)

    def test_affine_equivariance(self, rng):
        for _ in range(5):
            c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            alpha = rng.uniform(0.5, 2.0)
            beta = complex(rng.normal(), rng.normal())
            m = 16
            got = field_of_values(alpha * c + beta * np.eye(2), m)
            th = directions(m)
            expected = alpha * field_of_values(c, m).support + np.real(
                np.exp(-1j * th) * beta
            )
            scale = max(1.0, spectral_norm(c))
            assert np.abs(got.support - expected).max() <= 1e-8 * scale

    def test_eigenvalue_containment(self, rng):
        for _ in range(10):
            c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            reg = field_of_values(c, 32)
            assert reg.contains(np.linalg.eigvals(c), slack=1e-8 * spectral_norm(c))

    def test_norm_bound(self, rng):
        for _ in range(10):
            c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            reg = field_of_values(c, 16)
            assert np.all(reg.support <= spectral_norm(c) + 1e-12)

    def test_supports_match_scalar_path(self, rng):
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        th = directions(12)
        batch = fov_supports(c, th)
        single = [top_eigenpair(hermitian_part(c, t)).value for t in th]
        assert np.abs(batch - np.array(single)).max() <= 1e-12

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            field_of_values(JORDAN, 4)

    def test_degenerate_segment_canonicalizes(self):
        # Hermitian matrix: W is a real segment; the region must still
        # canonicalize with zero-area polygon.
        reg = field_of_values(np.diag([-1.0, 1.0]), 16)
        assert np.abs(reg.vertices[:, 1]).max() <= 1e-9
        assert reg.diameter() == pytest.approx(2.0, abs=1e-9)
