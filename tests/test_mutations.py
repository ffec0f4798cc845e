"""Mutants that a check must catch.

Each mutant patches one line of the program and must fail a named check on
seeded instances that pass it unmutated.  The per-unitary inclusion check
evaluates both sides through the objectives the ascents maximize, so a sign
error in either objective must fail it.  The witnesses compute
sum u*a_i u b_i term by term, apart from the GEMM both ascents share, so a
fault in that kernel must fail the hull check; on the operator side, where
no check sees it, it must break the exact transpose relation of
test_orbit's TestExactSymmetries.  An orbit objective built on
the wrong operator must fail both the main formula and the hull check, and
an orbit side that never leaves u = I must fail the main formula.  The
doubled orbit grid's mutants must fail the orbit tests that pin each part
of it: the midpoints' I and flip, their Haar starts and the final chained
polish.
"""

import numpy as np
import pytest

from elemrange import _batched, orbit
from elemrange.elemop import random_instance
from elemrange.orbit import banach_region
from elemrange.unitary_opt import (
    OptConfig,
    OptReport,
    OrbitSupportObjective,
    ShiftedNormObjective,
    _at,
)
from elemrange.verify import INCLUSION_TOL, verify_inclusion, verify_main

import test_orbit

CFG = OptConfig(restarts=4, seed=0)
INSTANCES = [(n, i) for n in (2, 3) for i in range(3)]


def _phase_flipped(monkeypatch):
    """The orbit objective rotates by e^{+i theta} instead of e^{-i theta}."""
    init = OrbitSupportObjective.__init__

    def mutant(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._phase = np.exp(1j * self.theta)

    monkeypatch.setattr(OrbitSupportObjective, "__init__", mutant)


def _shift_flipped(monkeypatch):
    """The shifted norm evaluates |R(u) + z u| instead of |R(u) - z u|."""

    def mutant(self, u, idx):
        g = self._r.apply(u, idx)
        if self._shifted:
            g = g + _at(self.z, idx) * u
        return g

    monkeypatch.setattr(ShiftedNormObjective, "_transform", mutant)


def _inclusion(n, i):
    r = random_instance(n, 2, np.random.default_rng([71, n, i]))
    return verify_inclusion(r, n_samples=10, cfg=CFG, m=12).check("per_unitary_inclusion")


@pytest.mark.parametrize("n, i", INSTANCES)
def test_unmutated_instances_pass_inclusion(n, i):
    assert _inclusion(n, i).passed


@pytest.mark.parametrize("mutate", [_phase_flipped, _shift_flipped])
@pytest.mark.parametrize("n, i", INSTANCES)
def test_objective_sign_mutant_fails_inclusion(monkeypatch, mutate, n, i):
    mutate(monkeypatch)
    check = _inclusion(n, i)
    assert not check.passed
    assert check.discrepancy > 1e6 * INCLUSION_TOL


def _kernel_transposed(monkeypatch):
    """ElementaryMatrix builds sum a_i kron b_i instead of sum a_i kron b_i^T,
    so both ascents run on x -> sum a_i x b_i^T."""
    init = _batched.ElementaryMatrix.__init__

    def mutant(self, tuples, offsets=(0,)):
        init(self, [(a, np.swapaxes(b, -1, -2)) for a, b in tuples], offsets)

    monkeypatch.setattr(_batched.ElementaryMatrix, "__init__", mutant)


def _tuples_swapped(monkeypatch):
    """OrbitSupportObjective builds its operator from each (b, a) instead of
    (a, b); the witnesses and the operator side keep (a, b)."""
    init = OrbitSupportObjective.__init__

    def mutant(self, tuples, *args, **kwargs):
        init(self, [(b, a) for a, b in tuples], *args, **kwargs)

    monkeypatch.setattr(OrbitSupportObjective, "__init__", mutant)


def _identity_only(monkeypatch):
    """Every orbit ascent (the cold sweep, its chain polish and each
    doubling) returns u = I in every direction, so the orbit region is
    W(sum a_i b_i); the operator side's ascents run unmutated."""
    maximize = orbit._maximize_blocks

    def mutant(objective_cls, rs, blocks, cfg):
        if objective_cls is not OrbitSupportObjective:
            return maximize(objective_cls, rs, blocks, cfg)
        out = []
        for r, inst in zip(rs, blocks):
            thetas = np.array([p for p, _ in inst])
            eyes = np.broadcast_to(np.eye(r.n, dtype=complex), (len(thetas), r.n, r.n))
            h = np.real(np.exp(-1j * thetas) * orbit.orbit_witnesses(r, eyes, thetas))
            out.append([OptReport(v, eye, 0, True, np.array([v])) for v, eye in zip(h, eyes)])
        return out

    monkeypatch.setattr(orbit, "_maximize_blocks", mutant)


def _reports(n):
    rs = [random_instance(n, 2, np.random.default_rng([71, n, i])) for i in range(3)]
    return verify_main(rs, m=32, cfg=CFG)


def _hull_filling(n):
    return [rep.check("orbit_hull_filling") for rep in _reports(n)]


@pytest.mark.parametrize("n", [2, 3])
def test_unmutated_instances_pass_hull_filling(n):
    assert all(check.passed for check in _hull_filling(n))


@pytest.mark.parametrize("n", [2, 3])
def test_unmutated_instances_pass_main_formula(n):
    assert all(rep.check("main_formula").passed for rep in _reports(n))


@pytest.mark.parametrize("n", [2, 3])
def test_swapped_tuples_fail_main_formula_and_hull_filling(monkeypatch, n):
    _tuples_swapped(monkeypatch)
    for rep in _reports(n):
        for name in ("main_formula", "orbit_hull_filling"):
            check = rep.check(name)
            assert check.discrepancy > 2 * check.tolerance, name


@pytest.mark.parametrize("n", [2, 3])
def test_transposed_kernel_fails_hull_filling(monkeypatch, n):
    _kernel_transposed(monkeypatch)
    for check in _hull_filling(n):
        assert check.discrepancy > 10 * check.tolerance


def _operator_side_transpose_gaps(n):
    """The transpose relation's gap on banach_region's supports alone, cold,
    for the seeded instances of _reports."""
    rs = [random_instance(n, 2, np.random.default_rng([71, n, i])) for i in range(3)]
    est = banach_region([*rs, *map(test_orbit.transposed, rs)], test_orbit.M, CFG)
    h = [e.region.support for e in est]
    return [test_orbit.symmetry_gap(a, b) for a, b in zip(h[:3], h[3:])]


@pytest.mark.parametrize("n", [2, 3])
def test_unmutated_operator_side_keeps_the_transpose_relation(n):
    assert max(_operator_side_transpose_gaps(n)) <= test_orbit.SYMMETRY_TOL


@pytest.mark.parametrize("n", [2, 3])
def test_transposed_kernel_breaks_the_operator_sides_transpose_relation(monkeypatch, n):
    _kernel_transposed(monkeypatch)
    assert min(_operator_side_transpose_gaps(n)) > 100 * test_orbit.SYMMETRY_TOL


@pytest.mark.parametrize("n", [2, 3])
def test_identity_only_orbit_side_fails_main_formula(monkeypatch, n):
    _identity_only(monkeypatch)
    for rep in _reports(n):
        check = rep.check("main_formula")
        assert check.discrepancy > 2 * check.tolerance


def _neighbours_only(monkeypatch):
    """Each midpoint of a doubled orbit grid starts from its two
    neighbours' maximizers alone, without I, the flip or Haar starts."""
    monkeypatch.setattr(
        orbit, "_midpoint_starts", lambda left, right, fresh: [left.maximizer, right.maximizer]
    )


def _no_haar_at_midpoints(monkeypatch):
    """Each midpoint of a doubled orbit grid starts from its neighbours'
    maximizers, I and the flip, whatever its neighbours' searches found."""
    monkeypatch.setattr(
        orbit, "_midpoint_starts",
        lambda left, right, fresh: [left.maximizer, right.maximizer, *fresh[:2]],
    )


def _no_final_chain(monkeypatch):
    """A doubled orbit grid is not chain-polished at the end."""
    chain = orbit._chain_polish

    def mutant(reports, objective_cls, rs, params, cfg, every=1):
        if every == 2:
            return reports
        return chain(reports, objective_cls, rs, params, cfg, every)

    monkeypatch.setattr(orbit, "_chain_polish", mutant)


def test_neighbour_only_midpoints_miss_a_vertex(monkeypatch):
    # The instance of test_orbit's test_vertex_between_two_coarse_angles_is_reached.
    _neighbours_only(monkeypatch)
    r, h = test_orbit.normal_derivation(np.random.default_rng(2), 2)
    est = orbit.orbit_region([r], test_orbit.M, test_orbit.EDGE_CFG)[0]
    assert np.abs(est.region.support - h).max() > 0.1


DOUBLING = test_orbit.TestDoubling()


@pytest.mark.parametrize(
    "mutate, test",
    [
        (_no_haar_at_midpoints, lambda: DOUBLING.test_maximum_between_two_coarse_angles_is_reached()),
        (_no_haar_at_midpoints, lambda: DOUBLING.test_diagonal_projection_reaches_its_curved_branch(3, 16)),
        (_no_final_chain, lambda: DOUBLING.test_diagonal_projection_reaches_its_curved_branch(4, 32)),
    ],
    ids=["no_haar-two_maxima", "no_haar-projection", "no_final_chain-projection"],
)
def test_doubling_mutant_misses_a_maximum(monkeypatch, mutate, test):
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        test()
