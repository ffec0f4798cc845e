"""Mutants that a check must catch.

Each mutant patches one line of the program and must fail a named check on
seeded instances that pass it unmutated.  The per-unitary inclusion check
evaluates both sides through the objectives the ascents maximize, so a sign
error in either objective must fail it.  The witnesses compute
sum u*a_i u b_i term by term, apart from the GEMM both ascents share, so a
fault in that kernel must fail the hull check.  An orbit objective built on
the wrong operator must fail both the main formula and the hull check, and
an orbit side that never leaves u = I must fail the main formula.
"""

import numpy as np
import pytest

from elemrange import _batched, orbit
from elemrange.elemop import random_instance
from elemrange.unitary_opt import (
    OptConfig,
    OptReport,
    OrbitSupportObjective,
    ShiftedNormObjective,
    _at,
)
from elemrange.verify import INCLUSION_TOL, verify_inclusion, verify_main

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
    """The orbit sweep keeps u = I in every direction, so the orbit region
    is W(sum a_i b_i); the operator side's sweep runs unmutated."""
    sweep = orbit._sweep

    def mutant(objective_cls, rs, params, cfg, stream, warm):
        if objective_cls is not OrbitSupportObjective:
            return sweep(objective_cls, rs, params, cfg, stream, warm)
        out = []
        for r, thetas in zip(rs, params):
            eyes = np.broadcast_to(np.eye(r.n, dtype=complex), (len(thetas), r.n, r.n))
            h = np.real(np.exp(-1j * thetas) * orbit.orbit_witnesses(r, eyes, thetas))
            out.append([OptReport(v, eye, 0, True, np.array([v])) for v, eye in zip(h, eyes)])
        return out

    monkeypatch.setattr(orbit, "_sweep", mutant)


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


@pytest.mark.parametrize("n", [2, 3])
def test_identity_only_orbit_side_fails_main_formula(monkeypatch, n):
    _identity_only(monkeypatch)
    for rep in _reports(n):
        check = rep.check("main_formula")
        assert check.discrepancy > 2 * check.tolerance
