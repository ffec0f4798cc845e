import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemrange import unitary_opt
from elemrange.elemop import random_instance
from elemrange.linalg import haar_unitaries, haar_unitary
from elemrange.unitary_opt import (
    OptConfig,
    OrbitSupportObjective,
    ShiftedNormObjective,
    default_starts,
    flip_permutation,
    maximize_grouped,
    tangent_project,
)

from oracles import cayley, directional_derivative, finite_difference_directional, is_unitary


def random_skew(rng, n):
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (k - k.conj().T) / 2
    return k / np.linalg.norm(k)


def random_objective(rng, n=2, k=2):
    r = random_instance(n, k, rng)
    if rng.uniform() < 0.5:
        z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 20)
        return ShiftedNormObjective([(r.a, r.b)], z)
    return OrbitSupportObjective([(r.a, r.b)], rng.uniform(0, 2 * np.pi))


class TestGradients:
    def test_analytic_matches_finite_differences(self, rng):
        # Central differences along random tangent directions.
        for _ in range(20):
            n = int(rng.integers(2, 4))
            objective = random_objective(rng, n=n)
            u = haar_unitary(n, rng)
            k = random_skew(rng, n)
            analytic = directional_derivative(objective, u, k)
            numeric = finite_difference_directional(objective, u, k)
            denom = max(abs(numeric), 1e-6)
            assert abs(analytic - numeric) / denom <= 1e-5

    @pytest.mark.parametrize("kind", ["orbit", "norm"])
    def test_analytic_matches_finite_differences_n4k3(self, rng, kind):
        for _ in range(5):
            r = random_instance(4, 3, rng)
            if kind == "orbit":
                objective = OrbitSupportObjective([(r.a, r.b)], rng.uniform(0, 2 * np.pi))
            else:
                z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 20)
                objective = ShiftedNormObjective([(r.a, r.b)], z)
            u = haar_unitary(4, rng)
            k = random_skew(rng, 4)
            analytic = directional_derivative(objective, u, k)
            numeric = finite_difference_directional(objective, u, k)
            assert abs(analytic - numeric) / max(abs(numeric), 1e-6) <= 1e-5

    def test_tangent_project_is_skew(self, rng):
        u = haar_unitary(3, rng)[None]
        e = rng.standard_normal((1, 3, 3)) + 1j * rng.standard_normal((1, 3, 3))
        k = tangent_project(u, e)[0]
        assert np.abs(k + k.conj().T).max() <= 1e-12


def one_group(objective, cfg, starts=None):
    """maximize_grouped with every start in one group.

    The default starts are those of elemop.shifted_norm.
    """
    if starts is None:
        rng = np.random.default_rng([cfg.seed, 0x5EED])
        starts = default_starts(objective.n, cfg.restarts, rng)
    starts = np.stack(starts)
    return maximize_grouped(objective, np.zeros(len(starts), dtype=int), starts, cfg)[0]


def three_instances(kind, n, seeded=False):
    """(solo, batched, cfg) for three instances of two groups each: solo
    holds the six reports of the instances run alone, and batched() runs
    them in one call.  The budget, set per n, binds on some groups and not
    on others.  With seeded, each group also starts from a report of a
    shorter ascent of the other group's subproblem, with its estimate."""
    rng = np.random.default_rng(12345)
    ops = [random_instance(n, 2, rng) for _ in range(3)]
    cfg = OptConfig(restarts=3, seed=5, max_iterations={2: 19, 4: 36}[n])
    block = default_starts(n, cfg.restarts, np.random.default_rng(5))
    thetas = np.array([0.4, 2.0])
    params = np.array([1.5 - 0.5j, -2.0j])

    def objective(tuples, g, offsets):
        if kind == "orbit":
            return OrbitSupportObjective(tuples, thetas[g % 2], offsets)
        return ShiftedNormObjective(tuples, params[g % 2], offsets)

    blocks = [list(block), list(block)]
    if seeded:
        short = dataclasses.replace(cfg, max_iterations=8)
        two = np.repeat([0, 1], len(block))
        seeds = maximize_grouped(
            objective([(ops[0].a, ops[0].b)], two, (0,)), two, block + block, short
        )
        assert all(rep.estimate is not None for rep in seeds)
        blocks = [list(block) + [seeds[1]], list(block) + [seeds[0]]]
    solo_groups = np.repeat([0, 1], [len(b) for b in blocks])
    solo_starts = blocks[0] + blocks[1]
    solo = [
        rep
        for r in ops
        for rep in maximize_grouped(
            objective([(r.a, r.b)], solo_groups, (0,)), solo_groups, solo_starts, cfg
        )
    ]
    groups = np.repeat(np.arange(6), len(blocks[0]))
    offsets = len(solo_starts) * np.arange(3)

    def batched():
        return maximize_grouped(
            objective([(r.a, r.b) for r in ops], groups, offsets), groups, solo_starts * 3, cfg,
        )

    return solo, batched, cfg


def assert_same_reports(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.value == w.value
        assert g.iterations == w.iterations
        assert g.converged == w.converged
        assert np.array_equal(g.maximizer, w.maximizer)
        assert np.array_equal(g.start_values, w.start_values)
        assert (g.estimate is None) == (w.estimate is None)
        assert g.estimate is None or np.array_equal(g.estimate, w.estimate)


class TestMaximize:
    def test_constant_objective_converges_immediately(self):
        obj = ShiftedNormObjective([(np.eye(2)[None], np.eye(2)[None])], 0.0)
        rep = one_group(obj, OptConfig(restarts=2, seed=1))
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert rep.converged
        assert rep.iterations <= 2

    def test_maximizer_is_unitary(self, rng):
        r = random_instance(2, 2, rng)
        rep = one_group(ShiftedNormObjective([(r.a, r.b)], 0.0), OptConfig(restarts=4, seed=2))
        assert is_unitary(rep.maximizer)

    def test_value_is_max_of_start_values(self, rng):
        r = random_instance(2, 2, rng)
        rep = one_group(ShiftedNormObjective([(r.a, r.b)], 0.0), OptConfig(restarts=4, seed=2))
        assert rep.value == np.max(rep.start_values)
        assert len(rep.start_values) == 4 + 2
        assert rep.spread >= 0.0

    def test_extra_starts_only(self, rng):
        r = random_instance(2, 1, rng)
        obj = ShiftedNormObjective([(r.a, r.b)], 0.0)
        u0 = haar_unitary(2, rng)
        rep = one_group(obj, OptConfig(restarts=1, seed=0), starts=[u0])
        assert len(rep.start_values) == 1
        assert float(obj.value(rep.maximizer[None])[0]) >= float(obj.value(u0[None])[0])

    def test_deterministic_given_config(self, rng):
        r = random_instance(3, 2, rng)
        obj = OrbitSupportObjective([(r.a, r.b)], 0.3)
        cfg = OptConfig(restarts=3, seed=9)
        rep1 = one_group(obj, cfg)
        rep2 = one_group(obj, cfg)
        assert rep1.value == rep2.value
        assert np.array_equal(rep1.maximizer, rep2.maximizer)


class TestMaximizeGrouped:
    def test_matches_independent_runs(self, rng):
        # A grouped sweep over per-element angles must find the same
        # suprema as isolated multistarts with the same starts.
        r = random_instance(2, 2, rng)
        thetas = np.array([0.0, 1.1, 2.2, 3.3])
        cfg = OptConfig(restarts=3, seed=5)
        starts = []
        groups = []
        for j in range(4):
            block = default_starts(2, cfg.restarts, np.random.default_rng([5, j]))
            starts.extend(block)
            groups.extend([j] * len(block))
        starts = np.stack(starts)
        groups = np.asarray(groups)
        grouped = maximize_grouped(
            OrbitSupportObjective([(r.a, r.b)], thetas[groups]), groups, starts, cfg
        )
        for j, theta in enumerate(thetas):
            solo = one_group(
                OrbitSupportObjective([(r.a, r.b)], theta), cfg, starts=starts[groups == j]
            )
            assert grouped[j].value == pytest.approx(solo.value, abs=1e-7)
            assert grouped[j].iterations == solo.iterations
            assert np.array_equal(grouped[j].maximizer, solo.maximizer)

    def test_leaves_starts_untouched(self, rng):
        r = random_instance(2, 2, rng)
        starts = np.stack(default_starts(2, 3, np.random.default_rng(4)))
        before = starts.copy()
        maximize_grouped(
            ShiftedNormObjective([(r.a, r.b)], 0.0), np.zeros(len(starts), dtype=int),
            starts, OptConfig(restarts=3, seed=4),
        )
        assert np.array_equal(starts, before)

    @pytest.mark.parametrize("kind", ["orbit", "norm"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_instances_match_solo_runs(self, kind, n):
        # Instances stacked in one call, each with its own operator, must get
        # the bits of a call on that instance alone: one GEMM per instance
        # on its own rows, and an iteration budget per start.  The budget
        # binds on some groups, and others converge before it.  The same
        # holds where some starts are reports, with their estimates.
        for seeded in (False, True):
            solo, batched, cfg = three_instances(kind, n, seeded)
            iterations = {rep.iterations for rep in solo}
            assert len(iterations) > 1 and cfg.max_iterations in iterations
            assert_same_reports(batched(), solo)

    def test_budget_is_per_start(self):
        # Group 0 starts next to its maximizer, so its coarse pass stops at
        # once and its fine pass needs several steps; group 1 climbs from
        # Haar starts and spends the whole budget in its coarse pass.  Group
        # 0 must get the report it gets alone: its fine budget is the
        # budget its own starts have left, whatever group 1 spends.
        r = random_instance(3, 2, np.random.default_rng(41))
        thetas = np.array([0.5, 2.5])
        best = one_group(OrbitSupportObjective([(r.a, r.b)], thetas[0]), OptConfig(seed=1))
        rng = np.random.default_rng(2)
        near = [best.maximizer @ cayley(random_skew(rng, 3), 1e-3) for _ in range(3)]
        hard = default_starts(3, 4, np.random.default_rng(8))
        cfg = OptConfig(restarts=4, seed=3, max_iterations=12)

        def run(*blocks):
            groups = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
            objective = OrbitSupportObjective([(r.a, r.b)], thetas[groups])
            return maximize_grouped(objective, groups, np.concatenate(blocks), cfg)

        (alone,), (easy, climb) = run(near), run(near, hard)
        assert alone.iterations > 1 and climb.iterations == cfg.max_iterations
        assert_same_reports([easy], [alone])

    @pytest.mark.parametrize("kind", ["orbit", "norm"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_slabs_match_solo_runs(self, kind, n, monkeypatch):
        # The same bits with one instance per slab, and with slabs of two
        # instances and then one; the default cap puts all three in one
        # slab (test_instances_match_solo_runs).  Each slab seeds its
        # estimates from the reports among its own starts.
        for seeded in (False, True):
            solo, batched, cfg = three_instances(kind, n, seeded)
            rows = 2 * (cfg.restarts + 2 + seeded)
            for cap in (1, 2 * rows * n * n):
                monkeypatch.setattr(unitary_opt, "_SLAB_ENTRIES", cap)
                assert_same_reports(batched(), solo)

    def test_each_slab_polishes_its_own_starts(self, monkeypatch):
        # A cap of one and a half instances makes three slabs of one
        # instance each.  Each slab runs its coarse pass and then the fine
        # pass of its own _POLISHED best starts per group, on one history,
        # before the next slab starts; the reports keep the solo bits.
        solo, batched, cfg = three_instances("orbit", 2)
        rows = 2 * (cfg.restarts + 2)
        cap = rows * 3 // 2
        monkeypatch.setattr(unitary_opt, "_SLAB_ENTRIES", cap * unitary_opt._row_entries(2))
        calls, histories = [], []
        run, init = unitary_opt._Ascent.run, unitary_opt._History.__init__

        def spy_run(self, active, gtol, *rest):
            calls.append((gtol, self, active.copy(), self.fval.copy()))
            return run(self, active, gtol, *rest)

        def spy_init(self, *args):
            histories.append(self)
            init(self, *args)

        monkeypatch.setattr(unitary_opt._Ascent, "run", spy_run)
        monkeypatch.setattr(unitary_opt._History, "__init__", spy_init)
        assert_same_reports(batched(), solo)
        coarse, fine = unitary_opt._COARSE_TOL, unitary_opt._GRADIENT_TOL
        assert [c[0] for c in calls] == [coarse, fine] * 3
        assert len(histories) == 3
        groups = np.repeat([0, 1], rows // 2)
        for i in range(3):
            (_, slab, every, _), (_, polished, active, values) = calls[2 * i:2 * i + 2]
            assert polished is slab and slab.history is histories[i]
            assert np.array_equal(slab.rows[every], rows * i + np.arange(rows))
            want = [
                at for g in (0, 1)
                for at in sorted(np.flatnonzero(groups == g), key=lambda at: (-values[at], at))[:2]
            ]
            assert np.array_equal(active, np.sort(want))

    def test_each_point_is_decomposed_once(self, rng, monkeypatch):
        # The first trial of each step goes to value_and_grad, and a start
        # accepted there takes its next step from that gradient; value sees
        # only the later trials of a step.  So within one pass (one run of
        # the ascent), value_and_grad never receives the same point twice.
        r = random_instance(3, 2, rng)
        obj = OrbitSupportObjective([(r.a, r.b)], 0.7)
        first, later, graded, repeated, valued = set(), set(), [], [], []
        trials_in_step = [0]
        value, value_and_grad = obj.value, obj.value_and_grad
        retract = unitary_opt._batched.apply_skew_exp
        run, step = unitary_opt._Ascent.run, unitary_opt._Ascent._step

        def points(u):
            return [row.tobytes() for row in u]

        def spy_run(self, *args):
            graded.append(set())
            return run(self, *args)

        def spy_step(self, *args):
            trials_in_step[0] = 0
            return step(self, *args)

        def spy_retract(u, *args):
            out = retract(u, *args)
            trials_in_step[0] += 1
            (first if trials_in_step[0] == 1 else later).update(points(out))
            return out

        def spy_value(u, idx=None):
            valued.extend(points(u))
            return value(u, idx)

        def spy_value_and_grad(u, idx=None):
            for p in points(u):
                if p in graded[-1]:
                    repeated.append(p)
                graded[-1].add(p)
            return value_and_grad(u, idx)

        monkeypatch.setattr(obj, "value", spy_value)
        monkeypatch.setattr(obj, "value_and_grad", spy_value_and_grad)
        monkeypatch.setattr(unitary_opt._batched, "apply_skew_exp", spy_retract)
        monkeypatch.setattr(unitary_opt._Ascent, "run", spy_run)
        monkeypatch.setattr(unitary_opt._Ascent, "_step", spy_step)
        one_group(obj, OptConfig(restarts=4, seed=2))
        assert len(graded) == 2 and not repeated
        assert valued and all(p in later and p not in first for p in valued)
        # Every first trial was evaluated with its gradient.
        assert first and first <= set().union(*graded)

    @pytest.mark.parametrize("n", [2, 3])
    def test_fine_pass_polishes_the_best_coarse_starts(self, n, monkeypatch):
        # The fine pass ascends exactly the _POLISHED best coarse starts of
        # each group.  Group 1 holds five copies of one start, which tie, so
        # its first two rows win; group 2 has a single start.  Every report
        # still counts and lists all of its starts.
        r = random_instance(n, 2, np.random.default_rng(31))
        haar = default_starts(n, 6, np.random.default_rng(7))
        starts = np.stack([*haar, *[haar[3]] * 5, haar[1]])
        groups = np.repeat([0, 1, 2], [len(haar), 5, 1])
        thetas = np.array([0.3, 1.9, 4.0])
        calls = []
        run = unitary_opt._Ascent.run

        def spy(self, active, gtol, max_iterations):
            calls.append((self.rows[active], self.fval.copy()))
            return run(self, active, gtol, max_iterations)

        monkeypatch.setattr(unitary_opt._Ascent, "run", spy)
        reports = maximize_grouped(
            OrbitSupportObjective([(r.a, r.b)], thetas[groups]), groups, starts,
            OptConfig(restarts=6, seed=7),
        )
        assert len(calls) == 2 and calls[0][0].size == len(starts)
        fine, coarse = calls[1]
        tied = coarse[groups == 1]
        assert np.all(tied == tied[0])
        want = []
        for g in range(3):
            rows = np.flatnonzero(groups == g)
            want.extend(sorted(rows, key=lambda i: (-coarse[i], i))[:unitary_opt._POLISHED])
        assert unitary_opt._POLISHED == 2
        assert np.array_equal(fine, np.sort(want))
        assert np.array_equal(fine[2:4], np.flatnonzero(groups == 1)[:2])
        for g, rep in enumerate(reports):
            count = int(np.sum(groups == g))
            assert len(rep.start_values) == count and rep.start_values.shape == (count,)

    def test_start_from_a_report_uses_its_estimate(self, monkeypatch):
        # A chain polish starts direction j from the report of direction
        # j - 1.  Started from that report, the row's history begins with
        # the report's estimate, and it converges in fewer steps than from
        # the report's maximizer alone, with _INITIAL_STEP I, at n = 4.
        r = random_instance(4, 2, np.random.default_rng([43, 0]))
        cfg = OptConfig(restarts=4, seed=1)
        rep = one_group(OrbitSupportObjective([(r.a, r.b)], 0.5), cfg)
        assert rep.estimate is not None and rep.estimate.shape == (16, 16)
        nxt = OrbitSupportObjective([(r.a, r.b)], 0.5 + 2 * np.pi / 16)
        seeds, init = [], unitary_opt._History.__init__

        def spy(self, rows, n, given=None):
            seeds.append(given)
            init(self, rows, n, given)

        monkeypatch.setattr(unitary_opt._History, "__init__", spy)
        group = np.zeros(1, dtype=int)
        (seeded,) = maximize_grouped(nxt, group, [rep], cfg, coarse_first=False)
        (plain,) = maximize_grouped(nxt, group, [rep.maximizer], cfg, coarse_first=False)
        assert seeds[0][0] is rep.estimate and seeds[1] == [None]
        assert seeded.converged and plain.converged
        assert seeded.value == pytest.approx(plain.value, abs=1e-12 * (1 + abs(plain.value)))
        assert seeded.iterations < plain.iterations / 2

    def test_group_bookkeeping(self, rng):
        r = random_instance(2, 1, rng)
        starts = np.stack([np.eye(2, dtype=complex)] * 6)
        groups = np.array([0, 0, 1, 1, 2, 2])
        reports = maximize_grouped(
            ShiftedNormObjective([(r.a, r.b)], 0.0), groups, starts, OptConfig(seed=0)
        )
        assert len(reports) == 3
        assert all(len(rep.start_values) == 2 for rep in reports)

    def test_iterations_are_per_group(self, rng):
        # Group 0 starts at a converged maximizer of its own subproblem, so
        # it stops at its first gradient; group 1 climbs from Haar starts.
        r = random_instance(3, 2, rng)
        cfg = OptConfig(restarts=4, seed=3)
        z = np.array([2.0 + 1.0j, -3.0j])
        solved = one_group(ShiftedNormObjective([(r.a, r.b)], z[0]), cfg)
        assert solved.converged
        hard = default_starts(3, 4, np.random.default_rng(8))
        starts = np.stack([solved.maximizer] * 2 + hard)
        groups = np.array([0, 0] + [1] * len(hard))
        easy, climb = maximize_grouped(
            ShiftedNormObjective([(r.a, r.b)], z[groups]), groups, starts, cfg,
            coarse_first=False,
        )
        assert easy.iterations == 1
        assert climb.iterations > 1


class TestMaximizeBlocks:
    """_maximize_blocks numbers the groups and builds the objective itself,
    from blocks[i][j] = (p, starts)."""

    @pytest.mark.parametrize(
        "cls, params",
        [
            (OrbitSupportObjective, [0.3, 1.1, 2.5, 4.0, 5.2, 0.7]),
            (ShiftedNormObjective, [1.5 - 0.5j, -2.0j, 0.8, 3.0 + 1.0j, -1.2, 0.4j]),
        ],
    )
    def test_each_row_gets_its_block_parameter(self, cls, params):
        rng = np.random.default_rng(31)
        ops = [random_instance(2, 2, rng) for _ in range(4)]
        # Instance 2 has no groups; block sizes differ within and across
        # instances.
        sizes = [[2, 4], [3], [], [1, 2, 5]]
        p = iter(params)
        blocks = [
            [(next(p), list(haar_unitaries(2, size, rng))) for size in inst]
            for inst in sizes
        ]
        made = []

        class Spy(cls):
            def __init__(self, tuples, param, offsets):
                made.append((len(tuples), np.array(param), np.array(offsets)))
                super().__init__(tuples, param, offsets)

        cfg = OptConfig(restarts=1, seed=0, max_iterations=12)
        batched = unitary_opt._maximize_blocks(Spy, ops, blocks, cfg)

        count, per_row, offsets = made[0]
        assert count == len(ops)
        assert np.array_equal(per_row, np.repeat(params, [s for inst in sizes for s in inst]))
        assert np.array_equal(offsets, [0, 6, 9, 9])
        assert [len(reps) for reps in batched] == [len(inst) for inst in sizes]
        for r, inst, reps in zip(ops, blocks, batched):
            if inst:
                assert_same_reports(reps, unitary_opt._maximize_blocks(cls, [r], [inst], cfg)[0])


def skew_basis(n):
    """An orthonormal basis of the skew-Hermitian n x n matrices under
    Re tr(X*Y): the real n^2 coordinates of the Lie algebra u(n)."""
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1j
        basis.append(e)
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j], e[j, i] = 1, -1
            basis.append(e / np.sqrt(2))
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = 1j
            basis.append(e / np.sqrt(2))
    return np.stack(basis)


def coords(basis, x):
    return np.array([np.sum(b.real * x.real + b.imag * x.imag) for b in basis])


def inverse_bfgs(pairs, dim, h=None):
    """Dense inverse-BFGS matrix of the pairs (s, y), oldest first, from h,
    by default the initial scaling <s, y>/<y, y> of the first pair."""
    if h is None:
        s, y = pairs[0]
        h = (s @ y) / (y @ y) * np.eye(dim)
    for s, y in pairs:
        rho = 1.0 / (s @ y)
        left = np.eye(dim) - rho * np.outer(s, y)
        h = left @ h @ left.T + rho * np.outer(s, s)
    return h


def store_pair(history, loc, s, y):
    """Feed the pair (s, y) of the rows loc through history.store."""
    k = np.stack([random_skew(np.random.default_rng(len(loc)), s.shape[-1])] * len(loc))
    history.store(loc, s, y + k, k)


def spy_retraction(monkeypatch):
    """The list of each direction stack the ascent factors and each step
    vector it retracts by, in call order."""
    seen = []
    factors, retract = unitary_opt._batched.skew_exp_factors, unitary_opt._batched.apply_skew_exp

    def spy_factors(d):
        seen.append(d.copy())
        return factors(d)

    def spy_retract(u, h, t):
        seen.append(t.copy())
        return retract(u, h, t)

    monkeypatch.setattr(unitary_opt._batched, "skew_exp_factors", spy_factors)
    monkeypatch.setattr(unitary_opt._batched, "apply_skew_exp", spy_retract)
    return seen


def fresh_ascent(rng, n=3, restarts=4, scale=1.0):
    """An ascent of one orbit objective, of an operator of the given scale,
    from the default starts, its rows, and its fresh BFGS history, holding
    K at every row, as the ascent's first step finds them."""
    r = random_instance(n, 2, rng)
    obj = OrbitSupportObjective([(scale * r.a, r.b)], 0.9)
    u = np.stack(default_starts(n, restarts, rng))
    state = unitary_opt._Ascent(obj, np.arange(len(u)), u)
    idx, history = np.arange(len(u)), state.history
    state.fval[idx], history.k[idx] = state._gradient(idx)
    return state, idx, history


class TestLbfgsStep:
    def test_two_loop_matches_dense_inverse_bfgs(self, rng):
        # Row 0 holds two pairs and row 1 six, every one of which counts.
        # Each row's estimate is the dense inverse BFGS of its pairs in the
        # coordinates of skew_basis, and its direction is that image of K.
        n = 3
        basis = skew_basis(n)
        history = unitary_opt._History(2, n)
        spd = rng.standard_normal((n * n, n * n))
        spd = spd @ spd.T + np.eye(n * n)
        pairs = [[], []]
        for count in range(6):
            rows = np.array([0, 1]) if count < 2 else np.array([1])
            s = np.stack([random_skew(rng, n) for _ in rows])
            y = np.stack([np.einsum("a,aij->ij", spd @ coords(basis, x), basis) for x in s])
            store_pair(history, rows, s, y)
            for row, si, yi in zip(rows, s, y):
                pairs[row].append((coords(basis, si), coords(basis, yi)))
        k = np.stack([random_skew(rng, n) for _ in range(2)])
        d = history.direction(np.array([0, 1]), k)
        assert np.abs(d + np.conj(np.swapaxes(d, 1, 2))).max() <= 1e-12
        for row, kept in enumerate(pairs):
            h = inverse_bfgs(kept, n * n)
            assert np.allclose(history.h[row], h, rtol=1e-10, atol=1e-12)
            want = h @ coords(basis, k[row])
            assert np.allclose(coords(basis, d[row]), want, rtol=1e-10, atol=1e-12)

    def test_pair_without_positive_curvature_is_skipped(self, rng):
        # Row 0's new y is -s and row 1's is orthogonal to s, so both keep
        # the estimate of their first pair bit for bit; row 2's y = 2s is
        # stored.  A row that is sent no pair stays unpaired.
        n = 2
        basis = skew_basis(n)
        history = unitary_opt._History(4, n)
        s = np.stack([random_skew(rng, n) for _ in range(3)])
        store_pair(history, np.arange(3), s, s)
        before = history.h.copy()
        other = random_skew(rng, n)
        ortho = other - np.sum(np.conj(s[1]) * other).real * s[1]
        store_pair(history, np.arange(3), s, np.stack([-s[0], ortho, 2 * s[2]]))
        assert np.array_equal(history.h[:2], before[:2])
        assert np.array_equal(history.paired, [True, True, True, False])
        c = coords(basis, s[2])
        want = inverse_bfgs([(c, c), (c, 2 * c)], n * n)
        assert np.allclose(history.h[2], want, rtol=0, atol=1e-12)
        # The secant equation of the newest pair: H (2 s) = s.
        assert history.h[2] @ (2 * c) == pytest.approx(c, abs=1e-12)

    def test_non_ascent_direction_falls_back_to_k(self, rng, monkeypatch):
        # Both rows hold a pair; row 0's direction is -K, which is
        # not an ascent direction, so it retracts along K; row 1 keeps its
        # direction 2K.  Each takes a first trial of t = min(1, pi / |D|_F).
        n = 3
        r = random_instance(n, 2, rng)
        obj = OrbitSupportObjective([(r.a, r.b)], 0.9)
        u = np.stack(default_starts(n, 0, rng))
        idx = np.arange(2)
        state = unitary_opt._Ascent(obj, idx, u)
        history = state.history
        s = np.stack([random_skew(rng, n) for _ in idx])
        store_pair(history, idx, s, s)
        state.fval[idx], history.k[idx] = state._gradient(idx)
        k = history.k.copy()
        monkeypatch.setattr(history, "direction", lambda loc, k: np.stack([-k[0], 2 * k[1]]))
        seen = spy_retraction(monkeypatch)
        state._step(idx, 0.0)
        assert np.array_equal(seen[0], np.stack([k[0], 2 * k[1]]))
        tmax = np.pi / np.linalg.norm(seen[0], axis=(1, 2))
        assert tmax[1] < 1.0  # the cap binds on row 1
        assert seen[1] == pytest.approx(np.minimum(1.0, tmax), rel=1e-12)

    def test_first_step_is_initial_step_along_k(self, rng, monkeypatch):
        # A fresh history holds no pair, so every row's direction is exactly
        # _INITIAL_STEP K, tried first at t = min(1, tmax): a
        # steepest-ascent step of _INITIAL_STEP along K.
        state, idx, history = fresh_ascent(rng)
        k = history.k.copy()
        seen = spy_retraction(monkeypatch)
        state._step(idx, 0.0)
        assert np.array_equal(seen[0], unitary_opt._INITIAL_STEP * k)
        tmax = np.pi / np.linalg.norm(seen[0], axis=(1, 2))
        assert seen[1] == pytest.approx(np.minimum(1.0, tmax), rel=1e-12)

    def test_first_step_keeps_its_direction_at_large_scale(self, rng, monkeypatch):
        # At 1e100 the product of |K|^2 and |D|^2 overflows; the ascent
        # test multiplies the norms instead, so no row falls back to K and
        # every row takes its direction _INITIAL_STEP K.
        state, idx, history = fresh_ascent(rng, scale=1e100)
        k = history.k.copy()
        assert np.all(np.linalg.norm(k, axis=(1, 2)) > 1e90)
        seen = spy_retraction(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state._step(idx, 0.0)
        assert np.array_equal(seen[0], unitary_opt._INITIAL_STEP * k)

    def test_pair_is_stored_when_its_step_is_accepted(self, rng):
        # Every row that moved holds the pair of its step and K at its new
        # point; a row that did not move holds no pair.
        state, idx, history = fresh_ascent(rng)
        start = state.u.copy()
        state._step(idx, 0.0)
        moved = np.any(state.u != start, axis=(1, 2))
        assert np.count_nonzero(moved) > 1
        assert np.array_equal(history.paired, moved)
        fval, k = state._gradient(idx[moved])
        assert np.array_equal(history.k[moved], k)
        assert np.array_equal(state.fval[moved], fval)

    def test_capped_direction_restarts_the_estimate(self, rng):
        # Row 0's seed is 1e3 I, so its direction exceeds the cap t |D| <= pi
        # and its pair sets its estimate anew, as from no curvature; row 1's
        # seed 0.05 I gives a direction within the cap, so its estimate is
        # the BFGS update of its seed.  Both hold the secant equation.
        n = 3
        basis = skew_basis(n)
        state, _, _ = fresh_ascent(rng, restarts=0)
        idx = np.arange(2)
        seeds = [1e3 * np.eye(n * n), 0.05 * np.eye(n * n)]
        state.history = history = unitary_opt._History(2, n, seeds)
        state.fval[idx], history.k[idx] = state._gradient(idx)
        start, k = state.u.copy(), history.k.copy()
        assert np.pi / np.linalg.norm(0.05 * k[1]) > 1.0 > np.pi / np.linalg.norm(1e3 * k[0])
        state._step(idx, 0.0)
        assert np.all(np.any(state.u != start, axis=(1, 2))) and history.paired.all()
        for row, seed in enumerate([None, seeds[1]]):
            step = np.linalg.solve(start[row], state.u[row])  # the Cayley factor
            s = 2 * np.linalg.solve(step + np.eye(n), step - np.eye(n))
            pair = (coords(basis, s), coords(basis, k[row] - history.k[row]))
            want = inverse_bfgs([pair], n * n, seed)
            assert np.allclose(history.h[row], want, rtol=1e-8, atol=1e-10)
            assert history.h[row] @ pair[1] == pytest.approx(pair[0], abs=1e-10)

    def test_late_rows_take_their_gradient_after_the_search(self, rng, monkeypatch):
        # A first trial 64 times too long overshoots, so most rows are
        # accepted at a later, value-only trial.  Those rows, and only
        # those, take their gradient in one call after the search, and
        # store their pair and their new K within the step.
        monkeypatch.setattr(unitary_opt, "_INITIAL_STEP", 64 * unitary_opt._INITIAL_STEP)
        state, idx, history = fresh_ascent(rng, restarts=8)
        start, k_start = state.u.copy(), history.k.copy()
        firsts, calls = [], []
        retract, gradient = unitary_opt._batched.apply_skew_exp, state._gradient

        def spy_retract(u, *args):
            out = retract(u, *args)
            if not firsts:
                firsts.append(out)
            return out

        def spy_gradient(rows):
            calls.append(rows.copy())
            return gradient(rows)

        monkeypatch.setattr(unitary_opt._batched, "apply_skew_exp", spy_retract)
        monkeypatch.setattr(state, "_gradient", spy_gradient)
        state._step(idx, 0.0)
        moved = np.any(state.u != start, axis=(1, 2))
        first = np.all(state.u == firsts[0], axis=(1, 2))
        late = np.flatnonzero(moved & ~first)
        assert late.size > 1
        assert len(calls) == 1 and np.array_equal(calls[0], late)
        fval, k = gradient(late)
        assert np.array_equal(history.k[late], k)
        assert np.array_equal(state.fval[late], fval)
        assert history.paired[late].all()
        # The pair is (the accepted step S, the change Y of K along it): the
        # estimate of one pair maps Y to S (the secant equation), and the
        # row moved by the Cayley retraction along S.
        steps = history.direction(late, k_start[late] - k)
        for row, step in zip(late, steps):
            assert np.allclose(start[row] @ cayley(step, 1.0), state.u[row], rtol=0, atol=1e-14)

    def test_history_memory_is_bounded_by_slabs(self, monkeypatch):
        # Each slab of instances runs all its iterations with BFGS
        # estimates of its own, freed before the next slab starts.  With one
        # slab holding 2 instances, 8 instances peak like 2 plus their own
        # starts (+13-17% at n = 4); with one history for every row they
        # peaked at 2.2 times 2.  At n = 6 a row counts its n^4 estimate.
        for n in (4, 6):
            block = np.stack(default_starts(n, 4, np.random.default_rng(9)))
            rows = 2 * len(block)
            ops = [random_instance(n, 2, np.random.default_rng([9, i])) for i in range(8)]
            thetas = np.array([0.4, 2.0])
            cfg = OptConfig(restarts=4, seed=9, max_iterations=40)
            cap = 2 * rows * unitary_opt._row_entries(n)
            monkeypatch.setattr(unitary_opt, "_SLAB_ENTRIES", cap)

            def peak(count):
                groups = np.repeat(np.arange(2 * count), len(block))
                obj = OrbitSupportObjective(
                    [(r.a, r.b) for r in ops[:count]], thetas[groups % 2], rows * np.arange(count)
                )
                starts = np.concatenate([block] * (2 * count))
                tracemalloc.start()
                try:
                    maximize_grouped(obj, groups, starts, cfg)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

            peak(2)
            assert peak(8) <= 1.5 * peak(2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(0, 6), min_size=1, max_size=8),
    cap=st.integers(0, 20),
)
def test_slabs_partition_whole_instances(sizes, cap):
    owner = np.repeat(np.arange(len(sizes)), sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    slabs = unitary_opt._slabs(offsets, owner.size, cap)
    idx = np.concatenate([np.arange(lo, hi) for lo, hi in slabs])
    assert np.array_equal(idx, np.arange(owner.size))
    assert all(hi > lo for lo, hi in slabs) or owner.size == 0
    for (_, end), (start, _) in zip(slabs, slabs[1:]):
        assert owner[end - 1] != owner[start]
    for lo, hi in slabs:
        assert hi - lo <= cap or len(set(owner[lo:hi])) == 1


class TestHelpers:
    def test_flip_permutation(self):
        assert np.allclose(flip_permutation(2), [[0, 1], [1, 0]])
        assert is_unitary(flip_permutation(5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptConfig(restarts=0)
        with pytest.raises(ValueError):
            OptConfig(max_iterations=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("restarts", 2.5),
            ("restarts", True),
            ("max_iterations", 10.0),
            ("max_iterations", "10"),
            ("seed", 1.5),
            ("seed", False),
            ("seed", -1),
            ("seed", np.int64(-3)),
        ],
    )
    def test_config_rejects_values_that_fail_later(self, field, value):
        # Each message names the field; seed=-1 used to reach numpy's
        # "expected non-negative integer" at the first ascent.
        with pytest.raises(ValueError, match=field):
            OptConfig(**{field: value})

    def test_config_takes_numpy_integers(self):
        cfg = OptConfig(restarts=np.int64(3), max_iterations=np.int32(20), seed=np.uint8(0))
        assert (cfg.restarts, cfg.max_iterations, cfg.seed) == (3, 20, 0)

    def test_config_holds_only_the_values_callers_set(self):
        # Tolerances and line-search constants are module constants.
        names = [f.name for f in dataclasses.fields(OptConfig)]
        assert names == ["restarts", "max_iterations", "seed"]
