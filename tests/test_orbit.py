import tracemalloc

import numpy as np
import pytest

from elemrange.elemop import KTupleOperator, apply, random_instance, russo_dye_norm
from elemrange.linalg import haar_unitary, hermitian_part, spectral_norm, top_eigenpair
from elemrange.orbit import (
    EARLY_STOP_REL,
    banach_region,
    default_s_schedule,
    orbit_region,
    _fov_witnesses,
    orbit_witnesses,
)
from elemrange.region import directions, hausdorff, hull_of_points
from elemrange.unitary_opt import OptConfig

from oracles import projection_mult_support, rectangle_support, su2_grid, grid_orbit_support

CFG = OptConfig(restarts=4, seed=0)
M = 16

PROJ = np.diag([1.0, 0.0])
MPP = KTupleOperator.multiplication(PROJ, PROJ)


class TestOrbitSupport:
    # Single-direction supports, read off the grouped sweep: direction j of
    # the M-grid is theta = 2 pi j / M, so j = 0 is theta = 0 and j = 8 is pi.
    def test_identity_operator(self):
        est = orbit_region([KTupleOperator.identity(2)], M, CFG, n_haar=4)[0]
        assert est.reports[0].value == pytest.approx(1.0, abs=1e-10)

    def test_projection_mult_theta0(self):
        value = orbit_region([MPP], M, CFG, n_haar=4)[0].reports[0].value
        assert value == pytest.approx(1.0, abs=1e-6)
        assert value == pytest.approx(projection_mult_support(0.0), abs=1e-6)

    def test_projection_mult_theta_pi(self):
        value = orbit_region([MPP], M, CFG, n_haar=4)[0].reports[8].value
        assert value == pytest.approx(0.125, abs=1e-6)
        assert value == pytest.approx(projection_mult_support(np.pi), abs=1e-6)

    def test_beats_su2_grid(self, rng):
        grid = su2_grid(17, 16)
        r = random_instance(2, 2, rng)
        est = orbit_region([r], M, CFG, n_haar=4)[0]
        for rep, theta in zip(est.reports, directions(M)):
            assert rep.value >= grid_orbit_support(r.a, r.b, theta, grid) - 1e-9


class TestBanachSupportRay:
    # Ray-limit supports g(s) = |R + s e^{i theta} Id| - s at every grid
    # direction, read off banach_region.
    def test_zero_operator(self):
        r = KTupleOperator(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
        est = banach_region([r], M, CFG)[0]
        for g in est.g_schedules:
            assert abs(g[-1]) <= 1e-10

    def test_scalar_operator_ray_excess(self):
        # R = c*Id: g(s) = |c + s e^{i theta} Id| - s >= Re(e^{-i theta} c),
        # with excess O(|c|^2 / s).
        c = 0.7 - 0.4j
        r = KTupleOperator.identity(2).translated(c - 1.0)
        schedule = default_s_schedule(2.0)
        est = banach_region([r], M, CFG, scales=[2.0])[0]
        assert np.array_equal(est.s_schedule, schedule)
        for g, theta in zip(est.g_schedules, directions(M)):
            target = np.real(np.exp(-1j * theta) * c)
            assert g[-1] >= target - 1e-9
            assert g[-1] - target <= abs(c) ** 2 / schedule[-1] + 1e-9

    def test_rejects_bad_schedule(self):
        r = KTupleOperator.identity(2)
        for scale in (-1.0, 0.0, np.nan):
            with pytest.raises(ValueError):
                banach_region([r], M, CFG, scales=[scale])[0]
        with pytest.raises(ValueError):
            banach_region([r], M, CFG, scales=[1.0], smax_factor=8.0)[0]


class TestDefaultSchedule:
    def test_doubling_to_factor(self):
        sched = default_s_schedule(2.0, 64.0)
        assert np.allclose(sched, [16.0, 32.0, 64.0, 128.0])

    def test_non_power_factor_appended(self):
        sched = default_s_schedule(1.0, 100.0)
        assert np.allclose(sched, [8, 16, 32, 64, 100])

    def test_rejects_small_factor(self):
        with pytest.raises(ValueError):
            default_s_schedule(1.0, 8.0)

    @pytest.mark.parametrize("factor", [np.nan, np.inf])
    def test_rejects_non_finite_factor(self, factor):
        with pytest.raises(ValueError, match="smax_factor"):
            default_s_schedule(1.0, factor)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_scale(self, scale):
        with pytest.raises(ValueError, match="scale"):
            default_s_schedule(scale)


class TestOrbitRegion:
    def test_identity_point(self):
        est = orbit_region([KTupleOperator.identity(2)], M, CFG, n_haar=8)[0]
        assert np.abs(est.region.support - np.cos(directions(M))).max() <= 1e-8

    def test_scalar_multiplication_point(self):
        r = KTupleOperator.multiplication(np.eye(2), np.eye(2))
        est = orbit_region([r], M, CFG, n_haar=4)[0]
        assert np.abs(est.region.support - np.cos(directions(M))).max() <= 1e-8

    def test_derivation_rectangle(self):
        # x -> Ax - xB with A = diag(0,1), B = diag(0,i): the orbit union
        # is W(A) - W(B) = [0,1] x [-1,0].
        delta = KTupleOperator.derivation(np.diag([0.0, 1.0]), np.diag([0.0, 1.0j]))
        est = orbit_region([delta], M, CFG, n_haar=16)[0]
        expected = np.array([rectangle_support(t) for t in directions(M)])
        assert np.abs(est.region.support - expected).max() <= 5e-3

    def test_witnesses_inside_region(self, rng):
        r = random_instance(2, 2, rng)
        est = orbit_region([r], M, CFG, n_haar=16)[0]
        assert est.region.contains(est.samples, slack=1e-6 * est.scale)

    def test_witness_hull_fills_region(self, rng):
        r = random_instance(2, 2, rng)
        est = orbit_region([r], M, CFG, n_haar=16)[0]
        hull = hull_of_points(est.samples, M)
        assert hausdorff(hull, est.region) <= 1e-9 * est.scale

    def test_unitary_conjugation_invariance(self, rng):
        r = random_instance(2, 2, rng)
        w = haar_unitary(2, rng)
        wh = w.conj().T
        conj = KTupleOperator(
            np.stack([wh @ ai @ w for ai in r.a]),
            np.stack([wh @ bi @ w for bi in r.b]),
        )
        est1 = orbit_region([r], M, CFG, n_haar=16)[0]
        est2 = orbit_region([conj], M, CFG, n_haar=16)[0]
        assert hausdorff(est1.region, est2.region) <= 2e-2 * est1.scale

    def test_translation_covariance(self, rng):
        r = random_instance(2, 2, rng)
        z = complex(rng.normal(), rng.normal())
        est = orbit_region([r], M, CFG, n_haar=8)[0]
        est_z = orbit_region([r.translated(z)], M, CFG, n_haar=8)[0]
        shift = np.real(np.exp(-1j * directions(M)) * z)
        assert np.abs(est_z.region.support - (est.region.support + shift)).max() <= 1e-6 * est.scale

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            orbit_region([KTupleOperator.identity(2)], 4, CFG)[0]

    def test_rejects_mixed_or_empty_batch(self):
        mixed = [KTupleOperator.identity(2), KTupleOperator.identity(3)]
        with pytest.raises(ValueError, match="one M_n"):
            orbit_region(mixed, M, CFG)
        with pytest.raises(ValueError, match="empty"):
            orbit_region([], M, CFG)
        with pytest.raises(ValueError, match="one M_n"):
            banach_region(mixed, M, CFG, scales=[2.0, 2.0])

    def test_batch_matches_solo_runs(self, rng):
        # Each estimate of a batch is the one its operator gets alone, at
        # n = 3, where one GEMM over every row would change the bits.
        ops = [random_instance(3, 2, rng) for _ in range(3)]
        warm = [orbit_region([r], 8, CFG, n_haar=4)[0].maximizers for r in ops]
        batch = (
            orbit_region(ops, 8, CFG, n_haar=4),
            banach_region(ops, 8, CFG, scales=[3.0, 5.0, 4.0], warm_starts=warm),
        )
        for i, r in enumerate(ops):
            solo = (
                orbit_region([r], 8, CFG, n_haar=4)[0],
                banach_region([r], 8, CFG, scales=[[3.0, 5.0, 4.0][i]], warm_starts=[warm[i]])[0],
            )
            for one, many in zip(solo, (est[i] for est in batch)):
                assert np.array_equal(one.region.support, many.region.support)
                assert np.array_equal(np.stack(one.maximizers), np.stack(many.maximizers))
                assert [rep.iterations for rep in one.reports] == [
                    rep.iterations for rep in many.reports
                ]
                if one.g_schedules is not None:
                    assert all(map(np.array_equal, one.g_schedules, many.g_schedules))

    def test_batch_memory_is_bounded_by_slabs(self):
        # The ascent steps a few instances at a time while many rows are
        # active, so 20 instances peak at a few times 2 (3.5x without slabs).
        ops = [random_instance(4, 2, np.random.default_rng([5, i])) for i in range(20)]
        cfg = OptConfig(max_iterations=30)
        orbit_region(ops[:1], 8, OptConfig(restarts=1, max_iterations=2), n_haar=4)
        peaks = []
        for batch in (ops[:2], ops):
            tracemalloc.start()
            try:
                orbit_region(batch, M, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 3 * peaks[0]

    def test_witness_cloud_memory_is_bounded_by_slabs(self):
        # The witness cloud runs its (unitary, angle) rows in slabs, so 64
        # Haar samples peak like 4: the sweep sets both peaks (about 1.4 MB).
        # Without slabs, 64 samples peaked at 3.3 MB.
        ops = [random_instance(4, 2, np.random.default_rng([5, i])) for i in range(2)]
        cfg = OptConfig(max_iterations=30)
        orbit_region(ops[:1], 8, OptConfig(restarts=1, max_iterations=2), n_haar=4)
        peaks = []
        for n_haar in (4, 64):
            tracemalloc.start()
            try:
                orbit_region(ops, M, cfg, n_haar=n_haar)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


class TestBanachRegion:
    def test_identity_point(self):
        # g(s) at direction theta carries an O(sin^2(theta)/s) ray excess,
        # bounded by the reported residual; at theta = 0 it is exact.
        est = banach_region([KTupleOperator.identity(2)], M, CFG)[0]
        err = np.abs(est.region.support - np.cos(directions(M)))
        assert err.max() <= 2 * est.max_residual + 1e-8
        assert err[0] <= 1e-10
        assert abs(est.residuals[0]) <= 1e-10

    @pytest.mark.parametrize(
        "r, smax_factor",
        [
            (random_instance(2, 2, np.random.default_rng(3)), 64.0),
            (random_instance(2, 2, np.random.default_rng(3)), 100.0),
            (KTupleOperator.identity(2), 64.0),
        ],
        ids=["default", "non-power", "early-stop"],
    )
    def test_derived_fields(self, r, smax_factor):
        est = banach_region([r], M, CFG, smax_factor=smax_factor)[0]
        if r.k == 1:
            # The identity's ray at theta = 0 is exact, so it freezes early.
            assert len(est.g_schedules[0]) < len(est.s_schedule)
        for j, g in enumerate(est.g_schedules):
            assert len(g) >= 2
            assert est.residuals[j] == g[-2] - g[-1]
            if len(g) < len(est.s_schedule):
                assert abs(est.residuals[j]) < EARLY_STOP_REL * est.scale
        assert len(est.maximizers) == M
        for u, rep in zip(est.maximizers, est.reports):
            assert np.array_equal(u, rep.maximizer)

    def test_orbit_side_has_no_residuals(self):
        est = orbit_region([KTupleOperator.identity(2)], M, CFG, n_haar=4)[0]
        assert est.residuals is None and est.max_residual == 0.0
        for u, rep in zip(est.maximizers, est.reports):
            assert np.array_equal(u, rep.maximizer)

    def test_zero_operator_point(self):
        r = KTupleOperator(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
        est = banach_region([r], M, CFG)[0]
        assert np.abs(est.region.support).max() <= 1e-8

    def test_derivation_rectangle_within_residual(self):
        delta = KTupleOperator.derivation(np.diag([0.0, 1.0]), np.diag([0.0, 1.0j]))
        est = banach_region([delta], M, CFG)[0]
        expected = np.array([rectangle_support(t) for t in directions(M)])
        bound = max(2e-2, 2 * est.max_residual)
        assert np.abs(est.region.support - expected).max() <= bound

    def test_ray_monotonicity_all_directions(self, rng):
        r = random_instance(2, 2, rng)
        est = banach_region([r], M, CFG)[0]
        for g in est.g_schedules:
            assert np.all(np.diff(g) <= 1e-6 * est.scale)

    def test_translation_covariance_within_ray_bias(self, rng):
        # At finite shift magnitude the ray evaluation of the translated
        # operator samples slightly rotated rays, so exact covariance only
        # holds in the limit; the deviation is bounded by the ray residuals.
        r = random_instance(2, 2, rng)
        z = complex(rng.normal(), rng.normal())
        rz = r.translated(z)
        scale = max(
            russo_dye_norm([r], CFG)[0].value, russo_dye_norm([rz], CFG)[0].value
        ) + 1.0
        est = banach_region([r], M, CFG, scales=[scale])[0]
        est_z = banach_region([rz], M, CFG, scales=[scale])[0]
        shift = np.real(np.exp(-1j * directions(M)) * z)
        dev = np.abs(est_z.region.support - (est.region.support + shift)).max()
        assert dev <= 2 * (est.max_residual + est_z.max_residual) + 1e-6 * scale

    def test_outer_bound_dominates_orbit(self, rng):
        # RHS <= LHS directionally, up to the ray residual and slack.
        r = random_instance(2, 2, rng)
        orbit = orbit_region([r], M, CFG, n_haar=8)[0]
        ban = banach_region([r], M, CFG, warm_starts=[orbit.maximizers])[0]
        slack = np.maximum(ban.residuals, 0.0)
        assert np.all(
            orbit.region.support
            <= ban.region.support + slack + 1e-6 * ban.scale
        )


class TestPerUnitaryInclusion:
    def test_exact_inequality_random(self, rng):
        # lambda_max(Herm(e^{-i t} u* R(u))) <= |R(u) + s e^{i t} u| - s.
        for _ in range(25):
            r = random_instance(2, 2, rng)
            u = haar_unitary(2, rng)
            theta = rng.uniform(0, 2 * np.pi)
            s = rng.uniform(0.5, 100.0)
            ru = apply(r, u)
            lhs = top_eigenpair(hermitian_part(u.conj().T @ ru, theta)).value
            rhs = spectral_norm(ru + s * np.exp(1j * theta) * u) - s
            assert lhs <= rhs + 1e-10


class TestOrbitWitnesses:
    def test_witnesses_are_orbit_points(self, rng):
        r = random_instance(2, 2, rng)
        us = np.stack([haar_unitary(2, rng) for _ in range(4)])
        wit = orbit_witnesses(r, us, n_angles=8)
        assert wit.shape == (32,)
        # Each witness lies in the field of values of its orbit matrix, so
        # its modulus is bounded by the largest orbit-matrix norm.
        t = np.conj(np.swapaxes(us, -1, -2)) @ np.einsum("kij,bjl,klm->bim", r.a, us, r.b)
        bound = max(spectral_norm(t[i]) for i in range(4))
        assert np.abs(wit).max() <= bound + 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_slabs_keep_each_witness_bits(self, rng, n):
        # 100 matrices x 32 angles span several slabs at n = 3 and one at
        # n = 2; each matrix's witnesses are the ones it gets alone.
        c = rng.standard_normal((100, n, n)) + 1j * rng.standard_normal((100, n, n))
        thetas = np.broadcast_to(directions(32), (100, 32))
        wit = _fov_witnesses(c, thetas)
        alone = np.concatenate([_fov_witnesses(c[i : i + 1], thetas[:1]) for i in range(100)])
        assert np.array_equal(wit, alone)
