"""Multistart Riemannian ascent over the unitary group U(n).

Both computations this package runs — operator norms over unitaries and
directional suprema of unitary-orbit fields of values — are nonconvex
maximizations of the form max f(u), u in U(n).  The engine below runs all
starts as one batched ascent: the Euclidean gradient E of f is projected
to the tangent direction K = skew(u*E), the retraction is the exact
matrix exponential u <- u exp(tK), and t is chosen by Armijo backtracking.
Objectives may carry per-element parameters (direction angles, shifts) so
a whole sweep of related subproblems runs as one batch; the grouped
driver then aggregates per subproblem.  Values found are always certified
lower bounds on the supremum; restart agreement is the (empirical)
quality signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _batched
from .linalg import haar_unitaries

# Coarse first-pass gradient tolerance and the value margin within which a
# start is still a contender for the maximum of its group.
_COARSE_TOL = 1e-3
_CONTENTION_MARGIN = 3e-3


@dataclass(frozen=True)
class OptConfig:
    """Knobs for the multistart ascent.

    restarts counts the Haar-random starts; the identity and the flip
    permutation are always added as deterministic starts.  The gradient
    tolerance is relative to 1 + |f|.
    """

    restarts: int = 16
    max_iterations: int = 200
    gradient_tolerance: float = 1e-8
    initial_step: float = 0.5
    backtrack: float = 0.5
    armijo: float = 1e-4
    max_backtracks: int = 40
    min_step: float = 1e-13
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be positive")


@dataclass
class OptReport:
    """Outcome of one multistart ascent."""

    value: float
    maximizer: np.ndarray
    restarts_used: int
    iterations: int  # most gradient evaluations spent on any one start
    converged: bool
    start_values: np.ndarray

    @property
    def spread(self) -> float:
        """Gap between the best and worst final start values."""
        return float(np.max(self.start_values) - np.min(self.start_values))


def _colify(x: np.ndarray) -> np.ndarray:
    """Reshape a per-element parameter vector for (B, n, n) broadcasting."""
    return x[:, None, None] if x.ndim == 1 else x


class ShiftedNormObjective:
    """f(u) = sigma_max(sum_i a_i u b_i - z u); z scalar or per-element.

    When z carries one value per batch element, value/value_and_grad take
    the element indices of the rows being evaluated.
    """

    def __init__(self, a, b, z: complex | np.ndarray = 0.0):
        self.a = np.asarray(a, dtype=complex)
        self.b = np.asarray(b, dtype=complex)
        self.z = np.asarray(z, dtype=complex)
        self.n = self.a.shape[-1]
        self._r = _batched.ElementaryMatrix(self.a, self.b)
        self._shifted = bool(np.any(self.z != 0))

    def _z_at(self, idx):
        if self.z.ndim == 0 or idx is None:
            return self.z
        return self.z[idx]

    def _transform(self, u, idx):
        g = self._r.apply(u)
        if self._shifted:
            g = g - _colify(self._z_at(idx)) * u
        return g

    def value(self, u, idx=None):
        return _batched.sigma_max(self._transform(u, idx))

    def value_and_grad(self, u, idx=None):
        g = self._transform(u, idx)
        sigma, w, v = _batched.top_svd(g)
        outer = w[:, :, None] * np.conj(v)[:, None, :]
        e = self._r.adjoint(outer)
        if self._shifted:
            e = e - np.conj(_colify(self._z_at(idx))) * outer
        return sigma, e


class OrbitSupportObjective:
    """f(u) = lambda_max(Herm(e^{-i theta} sum_i u* a_i u b_i)).

    theta is a scalar or one angle per batch element; with per-element
    angles, value/value_and_grad take the element indices being evaluated.
    """

    def __init__(self, a, b, theta: float | np.ndarray):
        self.a = np.asarray(a, dtype=complex)
        self.b = np.asarray(b, dtype=complex)
        self.theta = np.asarray(theta, dtype=float)
        self.n = self.a.shape[-1]
        self._r = _batched.ElementaryMatrix(self.a, self.b)
        self._phase = np.exp(-1j * self.theta)

    def _phase_at(self, idx):
        if self._phase.ndim == 0 or idx is None:
            return self._phase
        return self._phase[idx]

    def _parts(self, u, idx):
        s = self._r.apply(u)
        t = np.conj(np.swapaxes(u, -1, -2)) @ s
        rt = _colify(self._phase_at(idx)) * t
        return s, (rt + np.conj(np.swapaxes(rt, -1, -2))) / 2.0

    def value(self, u, idx=None):
        _, h = self._parts(u, idx)
        return _batched.eigvals_max(h)

    def value_and_grad(self, u, idx=None):
        s, h = self._parts(u, idx)
        lam, v = _batched.top_eigh(h)
        phase = _colify(self._phase_at(idx))
        vh = np.conj(v)[:, None, :]
        sv = np.einsum("bij,bj->bi", s, v)
        term1 = phase * (sv[:, :, None] * vh)
        uv = np.einsum("bij,bj->bi", u, v)
        term2 = np.conj(phase) * self._r.adjoint(uv[:, :, None] * vh)
        return lam, term1 + term2


def tangent_project(u, e):
    """Skew part of u*E: the ascent direction in the Lie algebra at u."""
    m = np.conj(np.swapaxes(u, -1, -2)) @ e
    return (m - np.conj(np.swapaxes(m, -1, -2))) / 2.0


def flip_permutation(n: int) -> np.ndarray:
    return np.eye(n)[::-1].astype(complex).copy()


def default_starts(n: int, restarts: int, rng: np.random.Generator):
    starts = [np.eye(n, dtype=complex), flip_permutation(n)]
    starts.extend(haar_unitaries(n, restarts, rng))
    return starts


class _Ascent:
    """Shared batched ascent state over a fixed set of start points."""

    def __init__(self, objective, u: np.ndarray, cfg: OptConfig):
        self.objective = objective
        self.cfg = cfg
        self.u = u
        self.nb = u.shape[0]
        self.fval = np.asarray(objective.value(u), dtype=float)
        self.step = np.full(self.nb, cfg.initial_step)
        self.done = np.zeros(self.nb, dtype=bool)
        self.converged = np.zeros(self.nb, dtype=bool)
        self.iterations = np.zeros(self.nb, dtype=int)

    def run(self, active: np.ndarray, gtol: float, budget: int) -> int:
        """Ascend the given elements until gradient tolerance or budget."""
        cfg = self.cfg
        u, fval, step = self.u, self.fval, self.step
        done, converged = self.done, self.converged
        done[active] = False
        converged[active] = False
        used = 0
        for _ in range(budget):
            idx = np.flatnonzero(~done)
            if idx.size == 0:
                break
            used += 1
            self.iterations[idx] += 1
            ua = u[idx]
            fa, ea = self.objective.value_and_grad(ua, idx)
            fval[idx] = fa
            k = tangent_project(ua, ea)
            gn2 = np.sum(k.real**2 + k.imag**2, axis=(1, 2))
            gn = np.sqrt(gn2)
            hit = gn <= gtol * (1.0 + np.abs(fa))
            done[idx[hit]] = True
            converged[idx[hit]] = True
            live = idx[~hit]
            if live.size == 0:
                continue
            k = k[~hit]
            gn2 = gn2[~hit]
            lam, vv = _batched.skew_exp_factors(k)
            # Cap the step so one retraction never rotates past half a turn.
            tmax = np.pi / (np.max(np.abs(lam), axis=1) + 1e-300)
            t = np.minimum(step[live], tmax)
            ub = u[live]
            pending = np.arange(live.size)
            for _ in range(cfg.max_backtracks):
                trial = _batched.apply_skew_exp(
                    ub[pending], lam[pending], vv[pending], t[pending]
                )
                ft = np.asarray(
                    self.objective.value(trial, live[pending]), dtype=float
                )
                ok = ft >= fval[live[pending]] + cfg.armijo * t[pending] * gn2[pending]
                acc = pending[ok]
                if acc.size:
                    u[live[acc]] = trial[ok]
                    fval[live[acc]] = ft[ok]
                    step[live[acc]] = 2.0 * t[acc]
                pending = pending[~ok]
                if pending.size == 0:
                    break
                t[pending] *= cfg.backtrack
                collapsed = t[pending] < cfg.min_step
                done[live[pending[collapsed]]] = True
                pending = pending[~collapsed]
                if pending.size == 0:
                    break
            done[live[pending]] = True  # backtracking budget exhausted: stall
        return used


def maximize_grouped(
    objective,
    groups: np.ndarray,
    starts: np.ndarray,
    cfg: OptConfig,
    coarse_first: bool = True,
) -> list[OptReport]:
    """One batched ascent for a family of subproblems sharing an objective form.

    groups[i] names the subproblem element i belongs to (the objective's
    per-element parameters must agree within a group); the return value is
    one report per group, aggregated by maximum.  Equivalent to independent
    per-group multistarts, but the whole family shares each batched kernel
    call.
    """
    groups = np.asarray(groups)
    ngroups = int(groups.max()) + 1
    state = _Ascent(objective, np.asarray(starts, dtype=complex), cfg)

    # Coarse pass over every start, then full precision only for the starts
    # still in contention for the maximum of their group; dominated local
    # maxima are not polished (the aggregate is a max, so their final values
    # don't matter).
    coarse = max(cfg.gradient_tolerance, _COARSE_TOL)
    if coarse_first and coarse > cfg.gradient_tolerance:
        used = state.run(np.arange(state.nb), coarse, cfg.max_iterations)
        gmax = np.full(ngroups, -np.inf)
        np.maximum.at(gmax, groups, state.fval)
        margin = _CONTENTION_MARGIN * (1.0 + np.abs(gmax))
        contenders = np.flatnonzero(state.fval >= (gmax - margin)[groups])
        state.run(contenders, cfg.gradient_tolerance, cfg.max_iterations - used)
    else:
        state.run(np.arange(state.nb), cfg.gradient_tolerance, cfg.max_iterations)

    reports = []
    for g in range(ngroups):
        idx = np.flatnonzero(groups == g)
        vals = state.fval[idx]
        best = idx[int(np.argmax(vals))]
        reports.append(
            OptReport(
                value=float(state.fval[best]),
                maximizer=state.u[best].copy(),
                restarts_used=int(idx.size),
                iterations=int(np.max(state.iterations[idx])),
                converged=bool(state.converged[best]),
                start_values=vals.copy(),
            )
        )
    return reports


def merge_reports(incumbent: OptReport, challenger: OptReport) -> OptReport:
    """Combine two ascents of the same subproblem, keeping the better value."""
    winner = challenger if challenger.value > incumbent.value else incumbent
    return OptReport(
        value=winner.value,
        maximizer=winner.maximizer,
        restarts_used=incumbent.restarts_used + challenger.restarts_used,
        iterations=incumbent.iterations + challenger.iterations,
        converged=winner.converged,
        start_values=np.concatenate(
            [incumbent.start_values, challenger.start_values]
        ),
    )


def directional_derivative(objective, u, k) -> float:
    """Analytic derivative of t -> f(u exp(tK)) at t = 0."""
    u = np.asarray(u, dtype=complex)[None]
    _, e = objective.value_and_grad(u)
    proj = tangent_project(u, e)[0]
    kk = np.asarray(k)
    return float(np.sum(proj.real * kk.real + proj.imag * kk.imag))


def finite_difference_directional(objective, u, k, h: float = 1e-4) -> float:
    """Central finite difference of t -> f(u exp(tK)) at t = 0."""
    u = np.asarray(u, dtype=complex)
    k = np.asarray(k, dtype=complex)
    lam, vv = _batched.skew_exp_factors(k[None])
    up = _batched.apply_skew_exp(u[None], lam, vv, np.array([h]))
    um = _batched.apply_skew_exp(u[None], lam, vv, np.array([-h]))
    fp = float(objective.value(up)[0])
    fm = float(objective.value(um)[0])
    return (fp - fm) / (2.0 * h)
