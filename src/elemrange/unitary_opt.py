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

One batch may also hold the sweeps of several instances (operators).
The objectives then apply each instance's operator to its own rows, one
GEMM per instance, and the driver keeps every iteration budget per
instance.  Each iteration passes its active rows to the kernels in slabs
of whole instances of at most _SLAB_ENTRIES matrix entries (or of one
instance), which bounds a batch's peak memory.  Every per-row kernel is
independent of the rows beside it, so an instance's reports are
bit-identical whether it runs alone or in a batch, whatever the slabs.
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

# Cap on a slab, rows * n^2 matrix entries: the row-sized temporaries of one
# step, not its arithmetic, set a batch's peak memory (see CHANGES.md).
_SLAB_ENTRIES = 12_288


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


def _elementary(tuples, offsets) -> _batched.ElementaryMatrix:
    tuples = [
        (np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)) for a, b in tuples
    ]
    return _batched.ElementaryMatrix(tuples, offsets)


class ShiftedNormObjective:
    """f(u) = sigma_max(sum_i a_i u b_i - z u); z scalar or per-element.

    ``tuples`` holds the (a, b) stacks of a batch of instances, whose rows
    start at ``offsets`` (see ``_batched.ElementaryMatrix``); the objective
    keeps them as ``offsets``, which is where the ascent reads them.  value
    and value_and_grad take the sorted element indices of the rows being
    evaluated, which select each row's instance and, when z carries one
    value per element, its shift.
    """

    def __init__(self, tuples, z: complex | np.ndarray = 0.0, offsets=(0,)):
        self.z = np.asarray(z, dtype=complex)
        self.offsets = np.asarray(offsets)
        self._r = _elementary(tuples, offsets)
        self.n = self._r.n
        self._shifted = bool(np.any(self.z != 0))

    def _z_at(self, idx):
        if self.z.ndim == 0 or idx is None:
            return self.z
        return self.z[idx]

    def _transform(self, u, idx):
        g = self._r.apply(u, idx)
        if self._shifted:
            g = g - _colify(self._z_at(idx)) * u
        return g

    def value(self, u, idx=None):
        return _batched.sigma_max(self._transform(u, idx))

    def value_and_grad(self, u, idx=None):
        sigma, w, v = _batched.top_svd(self._transform(u, idx))
        outer = w[:, :, None] * np.conj(v)[:, None, :]
        e = self._r.adjoint(outer, idx)
        if self._shifted:
            e -= np.conj(_colify(self._z_at(idx))) * outer
        return sigma, e


class OrbitSupportObjective:
    """f(u) = lambda_max(Herm(e^{-i theta} sum_i u* a_i u b_i)).

    theta is a scalar or one angle per batch element; ``tuples``,
    ``offsets`` and the element indices are as for ShiftedNormObjective.
    """

    def __init__(self, tuples, theta: float | np.ndarray, offsets=(0,)):
        self.theta = np.asarray(theta, dtype=float)
        self.offsets = np.asarray(offsets)
        self._r = _elementary(tuples, offsets)
        self.n = self._r.n
        self._phase = np.exp(-1j * self.theta)

    def _phase_at(self, idx):
        if self._phase.ndim == 0 or idx is None:
            return self._phase
        return self._phase[idx]

    def _herm(self, u, s, idx):
        """Herm(e^{-i theta} u* s), with s = R(u)."""
        rt = _colify(self._phase_at(idx)) * _batched.mm(np.conj(np.swapaxes(u, -1, -2)), s)
        return (rt + np.conj(np.swapaxes(rt, -1, -2))) / 2.0

    def value(self, u, idx=None):
        return _batched.eigvals_max(self._herm(u, self._r.apply(u, idx), idx))

    def value_and_grad(self, u, idx=None):
        s = self._r.apply(u, idx)
        lam, v = _batched.top_eigh(self._herm(u, s, idx))
        phase = _colify(self._phase_at(idx))
        vh = np.conj(v)[:, None, :]
        sv = np.einsum("bij,bj->bi", s, v)
        # Row-sized temporaries set a slab's peak memory; drop s first.
        del s
        uv = np.einsum("bij,bj->bi", u, v)
        grad = np.conj(phase) * self._r.adjoint(uv[:, :, None] * vh, idx)
        grad += phase * (sv[:, :, None] * vh)
        return lam, grad


def tangent_project(u, e):
    """Skew part of u*E: the ascent direction in the Lie algebra at u."""
    m = _batched.mm(np.conj(np.swapaxes(u, -1, -2)), e)
    return (m - np.conj(np.swapaxes(m, -1, -2))) / 2.0


def flip_permutation(n: int) -> np.ndarray:
    return np.eye(n)[::-1].astype(complex).copy()


def default_starts(n: int, restarts: int, rng: np.random.Generator):
    starts = [np.eye(n, dtype=complex), flip_permutation(n)]
    starts.extend(haar_unitaries(n, restarts, rng))
    return starts


def _slabs(idx: np.ndarray, owner: np.ndarray, cap: int) -> list:
    """Split the sorted rows idx into consecutive slabs of whole instances
    (owner[i] is the instance of row i), each of at most cap rows unless it
    holds one instance alone."""
    if idx.size <= cap:
        return [idx]
    cuts, prev = [0], 0
    for end in [*(np.flatnonzero(np.diff(owner[idx])) + 1), idx.size]:
        if end - cuts[-1] > cap and prev > cuts[-1]:
            cuts.append(prev)
        prev = end
    return np.split(idx, cuts[1:])


class _Ascent:
    """Shared batched ascent state over a fixed set of start points, of
    which instance i owns those from objective.offsets[i] on."""

    def __init__(self, objective, u: np.ndarray, cfg: OptConfig):
        self.objective = objective
        self.cfg = cfg
        self.u = u
        self.nb = u.shape[0]
        offsets = objective.offsets
        self.owner = np.searchsorted(offsets, np.arange(self.nb), side="right") - 1
        self.fval = np.full(self.nb, np.nan)  # every row steps in the first run
        self.step = np.full(self.nb, cfg.initial_step)
        self.done = np.zeros(self.nb, dtype=bool)
        self.converged = np.zeros(self.nb, dtype=bool)
        self.iterations = np.zeros(self.nb, dtype=int)

    def run(self, active: np.ndarray, gtol: float, budget) -> None:
        """Ascend the given elements until gradient tolerance or budget.

        budget is one iteration count for every element or one per element;
        an element takes part in the first budget[i] iterations only.
        """
        done = self.done
        done[active] = False
        self.converged[active] = False
        budget = np.broadcast_to(budget, (self.nb,))
        cap = _SLAB_ENTRIES // self.u[0].size
        for it in range(int(budget.max(initial=0))):
            idx = np.flatnonzero(~done & (budget > it))
            if idx.size == 0:
                break
            self.iterations[idx] += 1
            for slab in _slabs(idx, self.owner, cap):
                self._step(slab, gtol)

    # _gradient and _step are methods of their own so that their row-sized
    # temporaries are freed before the next slab allocates its own: those
    # temporaries set the peak memory of a large batch.

    def _gradient(self, idx):
        """Objective values and tangent ascent directions at the rows idx."""
        ua = self.u[idx]
        fa, ea = self.objective.value_and_grad(ua, idx)
        return fa, tangent_project(ua, ea)

    def _step(self, idx, gtol: float) -> None:
        """One gradient evaluation and Armijo line search for the rows idx."""
        cfg = self.cfg
        u, fval, step, done = self.u, self.fval, self.step, self.done
        fa, k = self._gradient(idx)
        fval[idx] = fa
        gn2 = np.sum(k.real**2 + k.imag**2, axis=(1, 2))
        gn = np.sqrt(gn2)
        hit = gn <= gtol * (1.0 + np.abs(fa))
        done[idx[hit]] = True
        self.converged[idx[hit]] = True
        live = idx[~hit]
        if live.size == 0:
            return
        gn2 = gn2[~hit]
        lam, vv = _batched.skew_exp_factors(k[~hit])
        del k  # freed before the line search allocates its temporaries
        # Cap the step so one retraction never rotates past half a turn.
        tmax = np.pi / (np.max(np.abs(lam), axis=1) + 1e-300)
        t = np.minimum(step[live], tmax)
        # live and its per-row arrays shrink to the rows still backtracking;
        # those rows have not moved, so u holds their start.
        for _ in range(cfg.max_backtracks):
            trial = _batched.apply_skew_exp(u[live], lam, vv, t)
            ft = np.asarray(self.objective.value(trial, live), dtype=float)
            ok = ft >= fval[live] + cfg.armijo * t * gn2
            acc = live[ok]
            if acc.size:
                u[acc] = trial[ok]
                fval[acc] = ft[ok]
                step[acc] = 2.0 * t[ok]
            rest = ~ok
            if not rest.any():
                return
            live, lam, vv, gn2 = live[rest], lam[rest], vv[rest], gn2[rest]
            t = t[rest] * cfg.backtrack
            collapsed = t < cfg.min_step
            if collapsed.any():
                done[live[collapsed]] = True
                rest = ~collapsed
                if not rest.any():
                    return
                live, lam, vv = live[rest], lam[rest], vv[rest]
                gn2, t = gn2[rest], t[rest]
        done[live] = True  # backtracking budget exhausted: stall


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
    call.  starts, a stack or a sequence of unitaries, is copied, never
    ascended in place.

    The elements may belong to several instances: instance i owns the
    contiguous elements from objective.offsets[i] on, and no group spans
    two instances.  Every budget is per instance, so each instance's
    reports are bit-identical to those of a call on that instance alone:
    the fine pass of instance i gets max_iterations minus the most coarse
    iterations of any of its starts.
    """
    groups = np.asarray(groups)
    ngroups = int(groups.max()) + 1
    state = _Ascent(objective, np.array(starts, dtype=complex), cfg)

    # Coarse pass over every start, then full precision only for the starts
    # still in contention for the maximum of their group; dominated local
    # maxima are not polished (the aggregate is a max, so their final values
    # don't matter).
    coarse = max(cfg.gradient_tolerance, _COARSE_TOL)
    if coarse_first and coarse > cfg.gradient_tolerance:
        state.run(np.arange(state.nb), coarse, cfg.max_iterations)
        gmax = np.full(ngroups, -np.inf)
        np.maximum.at(gmax, groups, state.fval)
        margin = _CONTENTION_MARGIN * (1.0 + np.abs(gmax))
        contenders = np.flatnonzero(state.fval >= (gmax - margin)[groups])
        used = np.zeros(len(objective.offsets), dtype=int)
        np.maximum.at(used, state.owner, state.iterations)
        state.run(contenders, cfg.gradient_tolerance, cfg.max_iterations - used[state.owner])
    else:
        state.run(np.arange(state.nb), cfg.gradient_tolerance, cfg.max_iterations)

    order = np.argsort(groups, kind="stable")
    cuts = np.searchsorted(groups[order], np.arange(ngroups + 1))
    reports = []
    for g in range(ngroups):
        idx = order[cuts[g]:cuts[g + 1]]
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
