import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elemrange import orbit, unitary_opt
from elemrange.elemop import KTupleOperator, random_instance, russo_dye_norm
from elemrange.linalg import haar_unitaries, haar_unitary
from elemrange.orbit import (
    SEVERAL_MAXIMA_REL,
    banach_region,
    default_s_schedule,
    orbit_region,
    _fov_witnesses,
    orbit_witnesses,
)
from elemrange.region import (
    cloud_supports,
    directions,
    hausdorff,
    hull_of_points,
    region_from_supports,
)
from elemrange.unitary_opt import OptConfig

from oracles import (
    apply,
    apply_batched,
    grid_orbit_support,
    hermitian_part,
    projection_mult_support,
    rectangle_support,
    spectral_norm,
    su2_grid,
    top_eigenpair,
)

CFG = OptConfig(restarts=4, seed=0)
M = 16

PROJ = np.diag([1.0, 0.0])
MPP = KTupleOperator.multiplication(PROJ, PROJ)


class TestOrbitSupport:
    # Single-direction supports, read off the grouped sweep: direction j of
    # the M-grid is theta = 2 pi j / M, so j = 0 is theta = 0 and j = 8 is pi.
    def test_identity_operator(self):
        est = orbit_region([KTupleOperator.identity(2)], M, CFG)[0]
        assert est.reports[0].value == pytest.approx(1.0, abs=1e-10)

    def test_projection_mult_theta0(self):
        value = orbit_region([MPP], M, CFG)[0].reports[0].value
        assert value == pytest.approx(1.0, abs=1e-6)
        assert value == pytest.approx(projection_mult_support(0.0), abs=1e-6)

    def test_projection_mult_theta_pi(self):
        value = orbit_region([MPP], M, CFG)[0].reports[8].value
        assert value == pytest.approx(0.125, abs=1e-6)
        assert value == pytest.approx(projection_mult_support(np.pi), abs=1e-6)

    def test_beats_su2_grid(self, rng):
        grid = su2_grid(17, 16)
        r = random_instance(2, 2, rng)
        est = orbit_region([r], M, CFG)[0]
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
        est = orbit_region([KTupleOperator.identity(2)], M, CFG)[0]
        assert np.abs(est.region.support - np.cos(directions(M))).max() <= 1e-8

    def test_scalar_multiplication_point(self):
        r = KTupleOperator.multiplication(np.eye(2), np.eye(2))
        est = orbit_region([r], M, CFG)[0]
        assert np.abs(est.region.support - np.cos(directions(M))).max() <= 1e-8

    def test_derivation_rectangle(self):
        # x -> Ax - xB with A = diag(0,1), B = diag(0,i): the orbit union
        # is W(A) - W(B) = [0,1] x [-1,0].
        delta = KTupleOperator.derivation(np.diag([0.0, 1.0]), np.diag([0.0, 1.0j]))
        est = orbit_region([delta], M, CFG)[0]
        expected = np.array([rectangle_support(t) for t in directions(M)])
        assert np.abs(est.region.support - expected).max() <= 5e-3

    def test_witnesses_inside_region(self, rng):
        r = random_instance(2, 2, rng)
        est = orbit_region([r], M, CFG)[0]
        assert est.region.contains(est.samples, slack=1e-6 * est.scale)

    @pytest.mark.parametrize("diag", [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0]])
    def test_witness_cloud_repairs_missed_supports(self, diag):
        # On x -> p x p by these projections at m = 720 the default ascent
        # stops short: the witness cloud's support exceeds the optimized one
        # by 3.3e-3 (1 + max|h|) in some directions.  Taking their max puts
        # every witness inside the region; measured to 1.2e-15 (1 + max|h|).
        p = np.diag(diag)
        est = orbit_region([KTupleOperator.multiplication(p, p)], 720, OptConfig())[0]
        top = 1.0 + float(np.max(np.abs(est.region.support)))
        assert est.region.contains(est.samples, slack=1e-12 * top)

    def test_witness_hull_fills_region(self, rng):
        r = random_instance(2, 2, rng)
        est = orbit_region([r], M, CFG)[0]
        hull = hull_of_points(est.samples, M)
        assert hausdorff(hull, est.region) <= 1e-9 * est.scale

    def test_translation_covariance(self, rng):
        r = random_instance(2, 2, rng)
        z = complex(rng.normal(), rng.normal())
        est = orbit_region([r], M, CFG)[0]
        est_z = orbit_region([r.translated(z)], M, CFG)[0]
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
        warm = [orbit_region([r], 8, CFG)[0].maximizers for r in ops]
        batch = (
            orbit_region(ops, 8, CFG),
            banach_region(ops, 8, CFG, scales=[3.0, 5.0, 4.0], warm_starts=warm),
        )
        for i, r in enumerate(ops):
            solo = (
                orbit_region([r], 8, CFG)[0],
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

    @pytest.mark.parametrize("zero_at", [0, 1, 2])
    def test_stopped_operator_leaves_the_batch_bits_alone(self, zero_at):
        # The zero operator's g is 0 at every shift, up to roundoff, so it
        # stops moving after the first shift, yet it runs every shift beside
        # operators that do move.  Each estimate is still the one its
        # operator gets alone, wherever the zero sits.
        ops = [random_instance(3, 2, np.random.default_rng([19, i])) for i in range(2)]
        ops.insert(zero_at, KTupleOperator(np.zeros((2, 3, 3)), np.zeros((2, 3, 3))))
        warm = [list(haar_unitaries(3, 8, np.random.default_rng([20, i]))) for i in range(3)]
        batch = banach_region(ops, 8, CFG, scales=[3.0] * 3, warm_starts=warm)
        for i, (r, many) in enumerate(zip(ops, batch)):
            one = banach_region([r], 8, CFG, scales=[3.0], warm_starts=[warm[i]])[0]
            assert {len(g) for g in many.g_schedules} == {len(many.s_schedule)}
            assert np.array_equal(one.region.support, many.region.support)
            assert all(map(np.array_equal, one.g_schedules, many.g_schedules))
            assert np.array_equal(np.stack(one.maximizers), np.stack(many.maximizers))
            assert [rep.iterations for rep in one.reports] == [
                rep.iterations for rep in many.reports
            ]

    def test_batch_memory_is_bounded_by_slabs(self):
        # The ascent steps a few instances at a time while many rows are
        # active, so 20 instances peak at a few times 2 (3.5x without slabs).
        ops = [random_instance(4, 2, np.random.default_rng([5, i])) for i in range(20)]
        cfg = OptConfig(max_iterations=30)
        orbit_region(ops[:1], 8, OptConfig(restarts=1, max_iterations=2))
        peaks = []
        for batch in (ops[:2], ops):
            tracemalloc.start()
            try:
                orbit_region(batch, M, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 3 * peaks[0]


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
        ids=["default", "non-power", "identity"],
    )
    def test_derived_fields(self, r, smax_factor):
        est = banach_region([r], M, CFG, smax_factor=smax_factor)[0]
        for j, g in enumerate(est.g_schedules):
            assert len(g) == len(est.s_schedule)
            assert est.residuals[j] == g[-2] - g[-1]
        if r.k == 1:
            # The identity's ray at theta = 0 is exact at every shift.
            assert est.residuals[0] == 0.0
        assert len(est.maximizers) == M
        for u, rep in zip(est.maximizers, est.reports):
            assert np.array_equal(u, rep.maximizer)

    def test_every_direction_runs_the_whole_schedule(self):
        # Directions whose g stops moving early (all of the zero operator's,
        # the identity's at theta = 0) still end on the last two shifts, as
        # every direction of the random operators beside them does.
        ops = [random_instance(2, 2, np.random.default_rng([29, i])) for i in range(2)]
        ops += [KTupleOperator(np.zeros((1, 2, 2)), np.zeros((1, 2, 2))), KTupleOperator.identity(2)]
        for est in banach_region(ops, M, CFG):
            assert [len(g) for g in est.g_schedules] == [len(est.s_schedule)] * M

    def test_rejects_warm_starts_of_the_wrong_shape(self):
        # One list per operator, of one unitary per direction.
        r = KTupleOperator.identity(2)
        eye = np.eye(2, dtype=complex)
        for warm in ([[eye] * M] * 2, [[eye] * (M - 1)], [[eye] * (M + 1)]):
            with pytest.raises(ValueError):
                banach_region([r], M, CFG, scales=[2.0], warm_starts=warm)

    @pytest.mark.parametrize(
        "scales, warm, message",
        [
            (None, "one", "warm_starts needs one entry per operator: got 1 for 2"),
            ([2.0], "fit", "scales needs one entry per operator: got 1 for 2"),
            (None, "short", "warm_starts of operator 1 need 16 2x2 matrices, one per "
                            "direction: got 15 of shapes [(2, 2)]"),
            (None, "3x3", "warm_starts of 'b' need 16 2x2 matrices, one per "
                          "direction: got 16 of shapes [(2, 2), (3, 3)]"),
        ],
    )
    def test_rejects_unfitting_inputs_before_any_work(self, monkeypatch, scales, warm, message):
        # The error names the operator, by its label if it has one, and no
        # grouped ascent runs first, not even the norm's.
        eye = np.eye(2, dtype=complex)
        label = "b" if warm == "3x3" else None
        ops = [KTupleOperator.identity(2), KTupleOperator.identity(2, label=label)]
        warm_starts = {
            "one": [[eye] * M],
            "fit": [[eye] * M] * 2,
            "short": [[eye] * M, [eye] * (M - 1)],
            "3x3": [[eye] * M, [eye] * (M - 1) + [np.eye(3)]],
        }[warm]
        grouped, ascents = unitary_opt.maximize_grouped, []

        def spy_grouped(*args):
            ascents.append(args)
            return grouped(*args)

        monkeypatch.setattr(unitary_opt, "maximize_grouped", spy_grouped)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            banach_region(ops, M, CFG, scales=scales, warm_starts=warm_starts)
        assert ascents == []

    def test_later_shifts_are_one_grouped_continuation(self, monkeypatch):
        # After the norm, the default four shifts take three grouped ascents
        # of the shifted norm: the first-shift sweep, its chained polish and
        # one continuation of every later shift.  Operator i's continuation
        # blocks are shift-major, block (t, j) with parameter
        # -s_t e^{i theta_j} and the starts (first-shift report of direction
        # j, with its maximizer and estimate, and warm start j).
        ops = [random_instance(2, 2, np.random.default_rng([37, i])) for i in range(2)]
        warm = [list(haar_unitaries(2, 8, np.random.default_rng([38, i]))) for i in range(2)]
        grouped, norm = unitary_opt.maximize_grouped, orbit.russo_dye_norm
        calls = []  # (objective, groups, starts, reports)

        def spy_grouped(objective, groups, starts, *args, **kwargs):
            out = grouped(objective, groups, starts, *args, **kwargs)
            calls.append((objective, np.asarray(groups), list(starts), out))
            return out

        def spy_norm(*args):
            out = norm(*args)
            calls.clear()
            return out

        monkeypatch.setattr(unitary_opt, "maximize_grouped", spy_grouped)
        monkeypatch.setattr(orbit, "russo_dye_norm", spy_norm)
        ests = banach_region(ops, 8, CFG, warm_starts=warm)
        assert len(calls) == 3
        assert all(type(c[0]) is unitary_opt.ShiftedNormObjective for c in calls)
        (_, _, _, swept), (_, _, _, polished), (objective, groups, starts, later) = calls
        first = [unitary_opt.merge_reports(a, b) for a, b in zip(swept, polished)]
        phases = np.exp(1j * directions(8))
        assert np.array_equal(groups, np.repeat(np.arange(2 * 3 * 8), 2))
        for i, est in enumerate(ests):
            s = est.s_schedule
            assert len(s) == 4 and est.g_schedules.shape == (8, 4)
            g = est.g_schedules
            assert np.array_equal(g[:, 0], [rep.value - s[0] for rep in first[8 * i:8 * i + 8]])
            for t in range(1, 4):
                for j in range(8):
                    group = 24 * i + 8 * (t - 1) + j
                    assert objective.z[2 * group] == objective.z[2 * group + 1]
                    assert objective.z[2 * group] == (-s[t] * phases)[j]
                    rep = first[8 * i + j]
                    assert np.array_equal(starts[2 * group].maximizer, rep.maximizer)
                    assert np.array_equal(starts[2 * group].estimate, rep.estimate)
                    assert np.array_equal(starts[2 * group + 1], warm[i][j])
                    assert g[j, t] == later[group].value - s[t]
            assert [rep.value for rep in est.reports] == [
                rep.value for rep in later[24 * i + 16:24 * i + 24]
            ]
            assert np.array_equal(est.residuals, g[:, -2] - g[:, -1])

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="^banach_region needs at least 8 directions$"):
            banach_region([KTupleOperator.identity(2)], 7, CFG)

    def test_orbit_side_has_no_residuals(self):
        est = orbit_region([KTupleOperator.identity(2)], M, CFG)[0]
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
        orbit = orbit_region([r], M, CFG)[0]
        ban = banach_region([r], M, CFG, warm_starts=[orbit.maximizers])[0]
        slack = np.maximum(ban.residuals, 0.0)
        assert np.all(
            orbit.region.support
            <= ban.region.support + slack + 1e-6 * ban.scale
        )


class TestChainPolish:
    def test_one_start_per_direction_from_its_predecessor(self, monkeypatch):
        # The chained polish re-ascends direction j of each instance from the
        # report of direction j - 1 mod m alone, so from its maximizer with
        # its estimate: the direction's own maximizer and the Banach warm
        # start were starts of the sweep.
        ops = [random_instance(2, 2, np.random.default_rng([17, i])) for i in range(2)]
        warm = [list(haar_unitaries(2, 8, np.random.default_rng([18, i]))) for i in range(2)]
        chain, grouped = orbit._chain_polish, unitary_opt.maximize_grouped
        inside, polishes = [], []  # polishes: (reports in, groups, starts)

        def spy_chain(reports, *args):
            inside.append(reports)
            try:
                return chain(reports, *args)
            finally:
                inside.pop()

        def spy_grouped(objective, groups, starts, *args, **kwargs):
            if inside:
                polishes.append((inside[-1], np.asarray(groups), list(starts)))
            return grouped(objective, groups, starts, *args, **kwargs)

        monkeypatch.setattr(orbit, "_chain_polish", spy_chain)
        monkeypatch.setattr(unitary_opt, "maximize_grouped", spy_grouped)
        orbit_region(ops, 8, CFG)
        banach_region(ops, 8, CFG, scales=[3.0, 4.0], warm_starts=warm)
        assert len(polishes) == 2
        for reports, groups, starts in polishes:
            assert np.array_equal(groups, np.arange(2 * 8))
            for i, inst in enumerate(reports):
                for j in range(8):
                    assert starts[8 * i + j] is inst[j - 1]
                    assert inst[j - 1].estimate is not None
            flat = [w for inst in warm for w in inst]
            assert not any(np.array_equal(start.maximizer, w) for start in starts for w in flat)


class TestDoubling:
    @pytest.mark.parametrize(
        "m, coarse",
        [(8, 8), (9, 9), (10, 10), (12, 12), (14, 14), (16, 8), (40, 10), (720, 45)],
    )
    def test_cold_sweep_on_the_coarsest_grid_then_doublings(self, monkeypatch, m, coarse):
        # The cold sweep and its chain polish run on directions(m)[::m/coarse],
        # coarse being the fewest directions >= 8 that halving m reaches, with
        # the whole grid's fresh starts; an m that cannot be halved to 8 or
        # more runs them alone.  Each doubling starts every new midpoint from
        # the maximizers of its two neighbours, then its fresh I and flip,
        # and its fresh Haar starts too where a neighbour's start values lie
        # more than SEVERAL_MAXIMA_REL (1 + |h|) apart.  Last, every direction of
        # the grid before the last doubling re-ascends from its predecessor on
        # the whole grid.
        ops = [random_instance(2, 2, np.random.default_rng([23, i])) for i in range(2)]
        cfg = OptConfig(restarts=3, max_iterations=20)
        maximize, doubled = orbit._maximize_blocks, orbit._doubled
        grouped = unitary_opt.maximize_grouped
        calls, inside = [], []  # calls: (grid being doubled or None, blocks, coarse_first)
        passes = []  # the coarse_first of each maximize_grouped call

        def spy_doubled(reports, *args):
            inside.append(reports)
            try:
                return doubled(reports, *args)
            finally:
                inside.pop()

        def spy_grouped(objective, groups, starts, cfg, coarse_first=True):
            passes.append(coarse_first)
            return grouped(objective, groups, starts, cfg, coarse_first)

        def spy_maximize(objective_cls, rs, blocks, cfg):
            reports = maximize(objective_cls, rs, blocks, cfg)
            calls.append((inside[-1] if inside else None, blocks, passes.pop()))
            return reports

        monkeypatch.setattr(unitary_opt, "maximize_grouped", spy_grouped)
        monkeypatch.setattr(orbit, "_doubled", spy_doubled)
        monkeypatch.setattr(orbit, "_maximize_blocks", spy_maximize)
        orbit_region(ops, m, cfg)
        thetas, fresh, step = directions(m), orbit._sweep_starts(2, m, cfg, 11), m // coarse

        def params(inst):
            return np.array([p for p, _ in inst])

        def same(starts, expected):
            return len(starts) == len(expected) and all(map(np.array_equal, starts, expected))

        (_, sweep, first), (_, chain, second), *rest = calls
        assert first and not second
        for inst in sweep:
            assert np.array_equal(params(inst), thetas[::step])
            assert all(same(starts, block) for (_, starts), block in zip(inst, fresh[::step]))
        for inst in chain:
            assert np.array_equal(params(inst), thetas[::step])
            assert {len(starts) for _, starts in inst} == {1}
        if step == 1:
            assert rest == []
            return
        *rest, (_, final, coarse_first) = rest
        assert not coarse_first
        for inst in final:
            assert np.array_equal(params(inst), thetas[::2])
            assert {len(starts) for _, starts in inst} == {1}
        assert len(rest) == np.log2(step)
        several = 0
        for grid, blocks, coarse_first in rest:
            step //= 2
            assert coarse_first
            for inst, reps in zip(blocks, grid):
                assert np.array_equal(params(inst), thetas[step::2 * step])
                for j, (_, starts) in enumerate(inst):
                    left, right = reps[j], reps[(j + 1) % len(reps)]
                    own = fresh[step + 2 * step * j]
                    if any(r.spread > SEVERAL_MAXIMA_REL * (1 + abs(r.value)) for r in (left, right)):
                        several += 1
                    else:
                        own = own[:2]
                    assert starts[0] is left and starts[1] is right and same(starts[2:], own)
        if m == 720:
            assert several > 0  # both kinds of midpoint occur

    def test_batch_matches_solo_runs(self, rng):
        # The projection's midpoints take their Haar starts, the random
        # instances' mostly not, so the instances' blocks differ in size; each
        # estimate is still the one its operator gets alone, at n = 3.
        p = np.diag([1.0, 1.0, 0.0])
        ops = [random_instance(3, 2, rng), KTupleOperator(p[None], p[None]), random_instance(3, 2, rng)]
        batch = orbit_region(ops, M, CFG)
        for r, many in zip(ops, batch):
            one = orbit_region([r], M, CFG)[0]
            assert np.array_equal(one.region.support, many.region.support)
            assert np.array_equal(np.stack(one.maximizers), np.stack(many.maximizers))
            assert all(map(np.array_equal, [x.start_values for x in one.reports],
                           [x.start_values for x in many.reports]))

    def test_maximum_between_two_coarse_angles_is_reached(self):
        # A random k = 2 tuple whose orbit objective at 247.5 degrees has two
        # maxima, 4.1354 and 3.9459; the higher one is the support only near
        # that angle.  Started from the maximizers at 225 and 270 degrees, I
        # and the flip, every ascent ends at 3.9459, and half of the fresh
        # Haar starts reach 4.1354.  The two neighbours' own multistarts
        # found several maxima each, so the midpoint takes its Haar starts.
        rng = np.random.default_rng([4, 5, 12])
        a, b = (
            (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))) / np.sqrt(2)
            for _ in range(2)
        )
        est = orbit_region([KTupleOperator(a, b)], M, OptConfig())[0]
        assert est.region.support[11] >= 4.1354

    @pytest.mark.parametrize("n, m", [(3, 16), (4, 32)])
    def test_diagonal_projection_reaches_its_curved_branch(self, n, m):
        # x -> p x p for p = diag(1, ..., 1, 0).  At 67.5 and 292.5 degrees
        # the warm starts of the midpoint end where W(p) = [0, 1] supports the
        # orbit union, at cos(theta) = 0.3827, and the support is at least
        # 0.4049: the midpoint's Haar starts reach it at (3, 16), and at
        # 292.5 degrees for (4, 32) only the chained polish of the whole grid
        # does, from the midpoint found at 281.25 degrees after it.
        p = np.diag([1.0] * (n - 1) + [0.0])
        est = orbit_region([KTupleOperator(p[None], p[None])], m, OptConfig())[0]
        j = 3 * m // 16
        assert min(est.region.support[j], est.region.support[-j]) >= 0.4049


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
        wit = orbit_witnesses(r, us, directions(4))
        assert wit.shape == (4,)
        # Each witness lies in the field of values of its orbit matrix, so
        # its modulus is bounded by the largest orbit-matrix norm.
        t = np.conj(np.swapaxes(us, -1, -2)) @ np.einsum("kij,bjl,klm->bim", r.a, us, r.b)
        bound = max(spectral_norm(t[i]) for i in range(4))
        assert np.abs(wit).max() <= bound + 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orbit_matrices_are_the_reference_with_each_row_bits(self, rng, n):
        # sum u*a_i u b_i is formed term by term, apart from the ascents'
        # GEMM: it matches the reference to roundoff, and each row's bits
        # are the ones it gets alone.
        r = random_instance(n, 3, rng)
        us = haar_unitaries(n, 40, rng)
        c = orbit._orbit_matrices(r, us)
        ref = np.conj(np.swapaxes(us, -1, -2)) @ apply_batched(r, us)
        assert np.abs(c - ref).max() <= 1e-13
        for i in range(40):
            assert np.array_equal(orbit._orbit_matrices(r, us[i : i + 1])[0], c[i])

    @pytest.mark.parametrize("n", [2, 3])
    def test_slabs_keep_each_witness_bits(self, rng, n):
        # However many matrices share the call, each matrix's witness is
        # the one it gets alone.  Alone means a call of 8 copies of it, the
        # fewest rows orbit_region makes one (m >= 8): numpy's einsum sums a
        # call of one 2x2 row in another order.
        c = rng.standard_normal((100, n, n)) + 1j * rng.standard_normal((100, n, n))
        thetas = rng.uniform(0, 2 * np.pi, 100)
        wit = _fov_witnesses(c, thetas)
        for i in range(100):
            alone = _fov_witnesses(np.repeat(c[i : i + 1], 8, 0), np.repeat(thetas[i], 8))
            assert np.array_equal(alone, np.full(8, wit[i]))

    def test_one_witness_per_direction_at_its_support(self, rng):
        # Witness j is the boundary point at theta_j of direction j's
        # maximizer, so it realizes the optimized support there, and the
        # region is the optimized supports raised to the cloud's own.
        ops = [random_instance(2, 2, rng) for _ in range(2)]
        thetas = directions(M)
        for est in orbit_region(ops, M, CFG):
            assert len(est.samples) == M
            realized = np.real(np.exp(-1j * thetas) * est.samples)
            h_opt = np.array([rep.value for rep in est.reports])
            assert np.abs(realized - h_opt).max() <= 1e-12 * est.scale
            expected = region_from_supports(np.maximum(h_opt, cloud_supports(est.samples, M)))
            assert np.array_equal(est.region.support, expected.support)


def _normal(rng, n):
    """A random normal matrix q diag(lam) q* and its eigenvalues lam."""
    lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q = haar_unitary(n, rng)
    return (q * lam) @ q.conj().T, lam


def normal_derivation(rng, n):
    """x -> Ax - xB for two random normal matrices, and its exact supports
    on the M-grid: those of conv(spec A) - conv(spec B)."""
    (a, lam), (b, mu) = _normal(rng, n), _normal(rng, n)
    phase = np.exp(-1j * directions(M))
    h = np.max((phase[:, None] * lam).real, axis=1) - np.min((phase[:, None] * mu).real, axis=1)
    return KTupleOperator.derivation(a, b), h


def _derivation_supports(a, b):
    """Exact supports on the M-grid of x -> Ax - xB for any A and B:
    lambda_max(Herm(e^{-i theta} A)) + lambda_max(Herm(-e^{-i theta} B)),
    attained by a unitary that takes the top eigenvector of the second
    Hermitian part to that of the first."""
    return np.array(
        [
            top_eigenpair(hermitian_part(a, t)).value + top_eigenpair(hermitian_part(-b, t)).value
            for t in directions(M)
        ]
    )


def _nilpotent(rng, n):
    """q N q* for a random strictly upper triangular N and Haar unitary q."""
    g = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    q = haar_unitary(n, rng)
    return q @ g @ q.conj().T


def _hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


@st.composite
def edge_instances(draw):
    """(operator, exact supports on the M-grid) of an edge input: an n=1
    tuple, the zero tuple, c*Id, or a derivation by two normal, two
    Hermitian or two nilpotent matrices."""
    kinds = ["n1", "zero", "scalar", "normal", "hermitian", "nilpotent"]
    kind = draw(st.sampled_from(kinds))
    n = 1 if kind == "n1" else draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phase = np.exp(-1j * directions(M))
    if kind == "normal":
        return normal_derivation(rng, n)
    if kind in ("hermitian", "nilpotent"):
        make = _hermitian if kind == "hermitian" else _nilpotent
        a, b = make(rng, n), make(rng, n)
        return KTupleOperator.derivation(a, b), _derivation_supports(a, b)
    if kind == "n1":
        a = rng.standard_normal((k, 1, 1)) + 1j * rng.standard_normal((k, 1, 1))
        b = rng.standard_normal((k, 1, 1)) + 1j * rng.standard_normal((k, 1, 1))
        c = complex(np.sum(a * b))
        r = KTupleOperator(a, b)
    elif kind == "zero":
        c = 0j
        r = KTupleOperator(np.zeros((k, n, n)), np.zeros((k, n, n)))
    else:
        c = complex(rng.standard_normal(), rng.standard_normal())
        r = KTupleOperator.multiplication(c * np.eye(n), np.eye(n))
    return r, (phase * c).real


EDGE_CFG = OptConfig(restarts=4, seed=0)


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(edge_instances())
def test_edge_inputs_reach_their_exact_supports(case):
    # Every start ties on the point regions (n=1, zero, c*Id), whose orbit
    # objective is constant; a derivation's region is W(A) - W(B), a
    # maximum the ascent must reach within the default budget.
    r, h = case
    est = orbit_region([r], M, EDGE_CFG)[0]
    assert np.abs(est.region.support - h).max() <= 1e-9 * (1.0 + np.abs(h).max())


def test_vertex_between_two_coarse_angles_is_reached():
    # At M = 16 the cold sweep runs on the 8 even directions and direction
    # 7 is a midpoint.  Here the vertex of W(A) - W(B) in direction 7 has a
    # normal cone strictly between directions 6 and 8, whose maximizers
    # are critical points of direction 7's objective at other vertices:
    # started from them alone, the ascent stays at -0.929 against the exact
    # -0.811.  I and the flip reach the vertex.
    r, h = normal_derivation(np.random.default_rng(2), 2)
    est = orbit_region([r], M, EDGE_CFG)[0]
    assert np.abs(est.region.support - h).max() <= 1e-9 * (1.0 + np.abs(h).max())


# Exact symmetries of V(R).  V(R) depends only on the map R, so conjugating
# R by an isometry of M_n, or writing the same map with another tuple,
# leaves it alone, and e^{i phi} R has the range e^{i phi} V(R): both sides
# must follow at any n and k, with no closed form needed.  Measured with the
# default config at M = 16 on 27 seeded instances (n, k = 1-3), every
# relation held to 7.1e-15 * (1 + max|h|) on the orbit side and 2.7e-12 on
# the operator side.
SYMMETRY_CFG = OptConfig()
SYMMETRY_TOL = 1e-9


def transposed(r):
    """(b^T, a^T): the map x -> R(x^T)^T, whose support is R's."""
    return KTupleOperator(np.swapaxes(r.b, -1, -2), np.swapaxes(r.a, -1, -2))


def symmetry_gap(h, g) -> float:
    """max |h - g| relative to 1 + max|h|."""
    return float(np.abs(h - g).max() / (1.0 + np.abs(h).max()))


def _both_sides(rs, scales=None):
    """{side: supports per operator}, the operator side warm-started from
    the orbit side's maximizers, as verify_main runs them."""
    rhs = orbit_region(rs, M, SYMMETRY_CFG)
    lhs = banach_region(
        rs, M, SYMMETRY_CFG, scales=scales, warm_starts=[est.maximizers for est in rhs]
    )
    return {"orbit": [e.region.support for e in rhs], "operator": [e.region.support for e in lhs]}


@st.composite
def gaussian_instances(draw):
    """A random_instance with n and k in 1-3, and a generator for the
    relation's own draws."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_instance(n, k, rng), rng


def n4k4(seed):
    """An n = 4, k = 4 case of gaussian_instances, which draws n and k up to 3."""
    rng = np.random.default_rng([4, 4, seed])
    return random_instance(4, 4, rng), rng


SYMMETRY_SETTINGS = settings(max_examples=8, deadline=None, derandomize=True, database=None)


class TestExactSymmetries:
    @SYMMETRY_SETTINGS
    @given(gaussian_instances())
    @example(n4k4(0))
    def test_transpose(self, case):
        r, _ = case
        for side, (h, g) in _both_sides([r, transposed(r)]).items():
            assert symmetry_gap(h, g) <= SYMMETRY_TOL, side

    @SYMMETRY_SETTINGS
    @given(gaussian_instances())
    @example(n4k4(1))
    def test_adjoint(self, case):
        # (b*, a*) is x -> R(x*)*, whose range is the conjugate of R's:
        # h(theta_j) becomes h(theta_{-j}).
        r, _ = case
        t = transposed(r)
        adjoint = KTupleOperator(t.a.conj(), t.b.conj())
        mirror = -np.arange(M) % M
        for side, (h, g) in _both_sides([r, adjoint]).items():
            assert symmetry_gap(h, g[mirror]) <= SYMMETRY_TOL, side

    @SYMMETRY_SETTINGS
    @given(gaussian_instances())
    @example(n4k4(2))
    def test_unitary_conjugation_invariance(self, case):
        r, rng = case
        w = haar_unitary(r.n, rng)
        wh = w.conj().T
        conj = KTupleOperator(wh @ r.a @ w, wh @ r.b @ w)
        for side, (h, g) in _both_sides([r, conj]).items():
            assert symmetry_gap(h, g) <= SYMMETRY_TOL, side

    @SYMMETRY_SETTINGS
    @given(gaussian_instances(), st.integers(1, M - 1))
    @example(n4k4(3), 5)
    def test_rotation(self, case, turn):
        # e^{i phi} R has the range e^{i phi} V(R); at phi = 2 pi turn / M,
        # h(theta_j) becomes h(theta_{j - turn}).
        r, _ = case
        rotated = KTupleOperator(np.exp(2j * np.pi * turn / M) * r.a, r.b)
        behind = (np.arange(M) - turn) % M
        for side, (h, g) in _both_sides([r, rotated]).items():
            assert symmetry_gap(h[behind], g) <= SYMMETRY_TOL, side

    @SYMMETRY_SETTINGS
    @given(gaussian_instances())
    @example(n4k4(4))
    def test_reparametrization(self, case):
        # (a C, C^-1 b) for C in GL(k) writes the same map with another
        # tuple: sum_i (a C)_i x (C^-1 b)_i = sum_i a_i x b_i.
        r, rng = case
        c = rng.standard_normal((r.k, r.k)) + 1j * rng.standard_normal((r.k, r.k))
        a = np.einsum("jxy,ji->ixy", r.a, c)
        b = np.einsum("ij,jxy->ixy", np.linalg.inv(c), r.b)
        for side, (h, g) in _both_sides([r, KTupleOperator(a, b)]).items():
            assert symmetry_gap(h, g) <= SYMMETRY_TOL, side

    @SYMMETRY_SETTINGS
    @given(gaussian_instances(), st.sampled_from([50, 200, 330]))
    @example(n4k4(6), 330)
    def test_power_of_two_scaling(self, case, e):
        # 2^e R has the range 2^e V(R), and a power of two scales every
        # entry exactly.  With the operator side's shifts scaled too, a
        # stopping rule that reads an absolute step size shows here.
        r, _ = case
        scale = russo_dye_norm([r], SYMMETRY_CFG)[0].value + 1.0
        big = KTupleOperator(2.0**e * r.a, r.b)
        for side, (h, g) in _both_sides([r, big], [scale, 2.0**e * scale]).items():
            assert symmetry_gap(h, g / 2.0**e) <= SYMMETRY_TOL, side

    @SYMMETRY_SETTINGS
    @given(gaussian_instances(), st.integers(2, 9))
    @example(n4k4(5), 4)
    def test_padding(self, case, copies):
        # (a/c || ... || a/c, b || ... || b), c copies, is the same map with
        # k c terms, up to k c = n^2 (or 2k where n^2 is smaller).
        r, _ = case
        c = min(copies, max(2, r.n**2 // r.k))
        padded = KTupleOperator(np.concatenate([r.a / c] * c), np.concatenate([r.b] * c))
        h, g = (est.region.support for est in orbit_region([r, padded], M, SYMMETRY_CFG))
        assert symmetry_gap(h, g) <= SYMMETRY_TOL


@pytest.mark.parametrize("n", [2, 4])
def test_maximizers_stay_unitary_over_the_full_budget(n, monkeypatch):
    # With no gradient tolerance every start ascends for the whole default
    # budget of 200 iterations (or until it stalls), and the retraction's
    # roundoff must not build up in the maximizers the three ascents return.
    monkeypatch.setattr(unitary_opt, "_COARSE_TOL", 0.0)
    monkeypatch.setattr(unitary_opt, "_GRADIENT_TOL", 0.0)
    rs = [random_instance(n, 2, np.random.default_rng([n, 0]))]
    cfg = OptConfig(restarts=1)
    assert cfg.max_iterations == 200
    norm = russo_dye_norm(rs, cfg)
    rhs = orbit_region(rs, 8, cfg)
    lhs = banach_region(rs, 8, cfg, scales=[norm[0].value + 1.0], smax_factor=16,
                        warm_starts=[est.maximizers for est in rhs])
    reports = [*norm, *rhs[0].reports, *lhs[0].reports]
    assert max(rep.iterations for rep in reports) >= cfg.max_iterations
    for rep in reports:
        u = rep.maximizer
        assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-12
