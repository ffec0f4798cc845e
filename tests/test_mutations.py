"""Mutants that a check must catch.

Each mutant patches one line of the program and must fail a named check on
seeded instances that pass it unmutated.  The per-unitary inclusion check
evaluates both sides through the objectives the ascents maximize, so a sign
error in either objective must fail it.  The witnesses compute
sum u*a_i u b_i term by term, apart from the GEMM both ascents share, so a
fault in that kernel must fail the hull check.
"""

import numpy as np
import pytest

from elemrange import _batched
from elemrange.elemop import random_instance
from elemrange.unitary_opt import (
    OptConfig,
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


def _hull_filling(n):
    rs = [random_instance(n, 2, np.random.default_rng([71, n, i])) for i in range(3)]
    return [rep.check("orbit_hull_filling") for rep in verify_main(rs, m=32, cfg=CFG)]


@pytest.mark.parametrize("n", [2, 3])
def test_unmutated_instances_pass_hull_filling(n):
    assert all(check.passed for check in _hull_filling(n))


@pytest.mark.parametrize("n", [2, 3])
def test_transposed_kernel_fails_hull_filling(monkeypatch, n):
    _kernel_transposed(monkeypatch)
    for check in _hull_filling(n):
        assert check.discrepancy > 10 * check.tolerance
