"""Multistart Riemannian ascent over the unitary group U(n).

Both computations this package runs — operator norms over unitaries and
directional suprema of unitary-orbit fields of values — are nonconvex
maximizations of the form max f(u), u in U(n).  The engine below runs all
starts as one batched ascent: the Euclidean gradient E of f is projected
to the left-trivialized direction K = skew(u*E), and each step is L-BFGS
in the Lie algebra.  Vector transport is then the identity (Huang,
Gallivan & Absil, SIAM J. Optim. 2015), so every start keeps its last
_MEMORY pairs (s, y) as skew matrices and the two-loop recursion maps K
to a direction D under the inner product Re tr(X*Y).  The retraction is
the Cayley map u <- u (I - tD/2)^-1 (I + tD/2), which keeps u unitary at
the cost of one small solve per trial (Wen & Yin, Math. Program. 2013),
and t is chosen by Armijo backtracking from t = 1, capped at
t |D|_F <= pi; a start whose D is not an ascent direction steps along K
instead.  A start stores its pair when its step is accepted,
with K at its new point, as in textbook L-BFGS.  The first trial of each
step is evaluated with its gradient, so a start accepted there costs one
decomposition per step; later trials are value-only, and the starts
accepted at one of them take their gradient in one call after the search.
The recursion's initial inverse Hessian is gamma I, with gamma =
_INITIAL_STEP until a start stores its first pair, so a start with no pair
yet takes D = _INITIAL_STEP K through the same path.
Objectives may carry per-element parameters (direction angles, shifts) so
a whole sweep of related subproblems runs as one batch; the grouped
driver then aggregates per subproblem.  Every start first ascends to a
coarse gradient tolerance; only the two best starts of each subproblem
then ascend to full precision, since the aggregate is their maximum.
Values found are always certified lower bounds on the supremum; restart
agreement is the (empirical) quality signal, and the restart spread
compares those two polished values with the other starts' coarse ones.

One batch may also hold the sweeps of several instances (operators).
The objectives then apply each instance's operator to its own rows, one
GEMM per instance, and the driver keeps every iteration budget per
instance; _maximize_blocks lays out every such batch from per-instance
lists of start blocks.  The rows are split once into slabs of whole
instances of at most _SLAB_ENTRIES matrix entries (or of one instance),
and each slab runs all its iterations, with an L-BFGS history of its own,
before the next one starts; that bounds a batch's peak memory.  Every per-row kernel and
every inner product is independent of the rows beside it, so an
instance's reports are bit-identical whether it runs alone or in a batch,
whatever the slabs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _batched
from .linalg import haar_unitaries

# Gradient tolerance of the final pass, relative to 1 + |f|; the coarse
# first-pass tolerance; and how many of each group's best coarse starts the
# final pass polishes.
_GRADIENT_TOL = 1e-8
_COARSE_TOL = 1e-3
_POLISHED = 2

# L-BFGS: pairs kept per row; a pair is skipped unless <s, y> exceeds
# _CURVATURE |s||y|, and a direction D falls back to K unless <K, D> exceeds
# _ASCENT |K||D|.
_MEMORY = 4
_CURVATURE = 1e-12
_ASCENT = 1e-10

# The initial gamma of the L-BFGS scaling gamma I, which makes the first
# step of a row with no stored pair _INITIAL_STEP K; then the Armijo line
# search: backtracking factor, sufficient-increase constant, most trials per
# step, and the step below which a row stalls.
_INITIAL_STEP = 0.5
_BACKTRACK = 0.5
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 40
_MIN_STEP = 1e-13

# Cap on a slab, rows * n^2 matrix entries: the row-sized temporaries of one
# step and the slab's L-BFGS history, not its arithmetic, set a batch's peak
# memory (see CHANGES.md).
_SLAB_ENTRIES = 6_144


@dataclass(frozen=True)
class OptConfig:
    """The settable values of the multistart ascent.

    restarts counts the Haar-random starts; the identity and the flip
    permutation are always added as deterministic starts.  max_iterations
    caps the steps of any one start, per instance, over both passes; a step
    is one iteration however many trials its line search takes.  seed seeds
    the Haar starts and every sampled check.  The gradient tolerances, the
    L-BFGS memory and the Armijo line-search constants are fixed module
    constants.
    """

    restarts: int = 16
    max_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iterations", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass
class OptReport:
    """Outcome of one multistart ascent."""

    value: float
    maximizer: np.ndarray
    iterations: int  # most steps taken by any one start
    converged: bool
    start_values: np.ndarray

    @property
    def spread(self) -> float:
        """Gap between the best and worst final start values."""
        return float(np.max(self.start_values) - np.min(self.start_values))


def _at(x: np.ndarray, idx):
    """A per-element parameter at the rows idx (None: all rows), shaped for
    (B, n, n) broadcasting; a scalar parameter as it is."""
    if x.ndim == 0:
        return x
    return (x if idx is None else x[idx])[:, None, None]


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

    def _transform(self, u, idx):
        g = self._r.apply(u, idx)
        if self._shifted:
            g = g - _at(self.z, idx) * u
        return g

    def value(self, u, idx=None):
        return _batched.sigma_max(self._transform(u, idx))

    def value_and_grad(self, u, idx=None):
        sigma, w, v = _batched.top_svd(self._transform(u, idx))
        outer = w[:, :, None] * np.conj(v)[:, None, :]
        e = self._r.adjoint(outer, idx)
        if self._shifted:
            e -= np.conj(_at(self.z, idx)) * outer
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

    def _herm(self, u, s, idx):
        """Herm(e^{-i theta} u* s), with s = R(u)."""
        c = _batched.mm(np.conj(np.swapaxes(u, -1, -2)), s)
        return _batched._herm(c, _at(self._phase, idx))

    def value(self, u, idx=None):
        return _batched.eigvals_max(self._herm(u, self._r.apply(u, idx), idx))

    def value_and_grad(self, u, idx=None):
        s = self._r.apply(u, idx)
        lam, v = _batched.top_eigh(self._herm(u, s, idx))
        phase = _at(self._phase, idx)
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


def _dot(x, y) -> np.ndarray:
    """Re tr(X*Y) for each row of two C-contiguous (B, n, n) stacks."""
    rows = len(x)
    return np.einsum(
        "bi,bi->b", x.view(float).reshape(rows, -1), y.view(float).reshape(rows, -1)
    )


class _History:
    """The L-BFGS memory of one slab's rows, indexed by position in the slab.

    Each row keeps its last _MEMORY pairs (s, y) in a ring whose newest slot
    is head; slot j of row i is entry [j, i] of s, y and rho.  A slot with
    no pair holds zeros and rho = 0, which the two-loop recursion passes
    through unchanged, so a row with none gets gamma K; gamma starts at
    _INITIAL_STEP.  k is K at each row's current point, and a row's pair is
    stored when its step is accepted, together with K at its new point.
    """

    def __init__(self, rows: int, n: int):
        self.s = np.zeros((_MEMORY, rows, n, n), dtype=complex)
        self.y = np.zeros_like(self.s)
        self.rho = np.zeros((_MEMORY, rows))
        self.head = np.zeros(rows, dtype=int)
        self.gamma = np.full(rows, _INITIAL_STEP)
        self.k = np.zeros((rows, n, n), dtype=complex)

    def store(self, loc, s, k_old, k_new) -> None:
        """The rows loc moved by the step s from where K was k_old to where
        it is k_new: keep k_new and store the pair.

        s is the step in the Lie algebra and y = k_old - k_new the gradient
        change of -f; a pair without positive curvature is skipped.
        """
        self.k[loc] = k_new
        y = k_old - k_new
        sy = _dot(s, y)
        yy = _dot(y, y)
        keep = sy > _CURVATURE * np.sqrt(_dot(s, s)) * np.sqrt(yy)
        rows = loc[keep]
        self.head[rows] = (self.head[rows] + 1) % _MEMORY
        slot = self.head[rows], rows
        self.s[slot] = s[keep]
        self.y[slot] = y[keep]
        self.rho[slot] = 1.0 / sy[keep]
        self.gamma[rows] = sy[keep] / yy[keep]

    def direction(self, loc, k) -> np.ndarray:
        """The two-loop recursion: the inverse-BFGS image of k at rows loc."""
        slot = (self.head[loc] - np.arange(_MEMORY)[:, None]) % _MEMORY, loc
        s, y, rho = self.s[slot], self.y[slot], self.rho[slot]
        q = k.copy()
        alpha = np.empty_like(rho)
        for j in range(_MEMORY):
            alpha[j] = rho[j] * _dot(s[j], q)
            q -= alpha[j][:, None, None] * y[j]
        q *= self.gamma[loc][:, None, None]
        for j in reversed(range(_MEMORY)):
            beta = rho[j] * _dot(y[j], q)
            q += (alpha[j] - beta)[:, None, None] * s[j]
        return q


class _Ascent:
    """Shared batched ascent state over a fixed set of start points, of
    which instance i owns those from objective.offsets[i] on.

    Each step is L-BFGS on the left-trivialized directions K = skew(u*E):
    vector transport is then the identity, so the pairs (s, y) live in the
    Lie algebra and the two-loop recursion runs on K with the inner product
    Re tr(X*Y).  Rows with no stored pair ascend along gamma K.
    """

    def __init__(self, objective, u: np.ndarray):
        self.objective = objective
        self.u = u
        self.nb = u.shape[0]
        offsets = objective.offsets
        self.owner = np.searchsorted(offsets, np.arange(self.nb), side="right") - 1
        self.fval = np.full(self.nb, np.nan)  # every row steps in the first run
        self.done = np.zeros(self.nb, dtype=bool)
        self.converged = np.zeros(self.nb, dtype=bool)
        self.iterations = np.zeros(self.nb, dtype=int)

    def run(self, active: np.ndarray, gtol: float, budget) -> None:
        """Ascend the given elements until gradient tolerance or budget.

        budget is one iteration count for every element or one per element;
        an element takes part in the first budget[i] iterations only.  The
        elements run in slabs of whole instances, one slab after another,
        each with an L-BFGS history of its own that is freed after it.
        """
        active = np.sort(active)
        done = self.done
        done[active] = False
        self.converged[active] = False
        budget = np.broadcast_to(budget, (self.nb,))
        cap = _SLAB_ENTRIES // self.u[0].size
        for slab in _slabs(active, self.owner, cap):
            history = _History(slab.size, self.u.shape[-1])
            own = budget[slab]
            for it in range(int(own.max(initial=0))):
                loc = np.flatnonzero(~done[slab] & (own > it))
                if loc.size == 0:
                    break
                if it == 0:
                    self.fval[slab[loc]], history.k[loc] = self._gradient(slab[loc])
                self.iterations[slab[loc]] += 1
                self._step(slab[loc], loc, gtol, history)
            del history  # freed before the next slab allocates its own

    # _gradient and _step are methods of their own so that their row-sized
    # temporaries are freed before the next slab allocates its own: those
    # temporaries set the peak memory of a large batch.

    def _gradient(self, idx):
        """Objective values and tangent ascent directions at the rows idx."""
        ua = self.u[idx]
        fa, ea = self.objective.value_and_grad(ua, idx)
        return fa, tangent_project(ua, ea)

    def _step(self, idx, loc, gtol: float, history: _History) -> None:
        """One L-BFGS direction and Armijo line search for the rows idx, at
        positions loc of the slab that owns history, from K = history.k.

        The first trial is evaluated with its gradient, so a row accepted
        there stores its pair at once.  Later trials are evaluated with the
        value alone; the rows accepted at one of them take their gradient in
        one call after the search, and then store their pair.
        """
        u, fval, done = self.u, self.fval, self.done
        k = history.k[loc]
        gn2 = _dot(k, k)
        hit = np.sqrt(gn2) <= gtol * (1.0 + np.abs(fval[idx]))
        done[idx[hit]] = True
        self.converged[idx[hit]] = True
        if hit.all():
            return
        idx, loc, k, gn2 = idx[~hit], loc[~hit], k[~hit], gn2[~hit]
        # Every row takes the two-loop direction D (gamma K for a row with no
        # stored pair) with a first trial of t = 1, unless D is not an ascent
        # direction, when it falls back to D = K.  The test multiplies the
        # two norms: the product of their squares overflows once K exceeds
        # about 1e77.
        d = history.direction(loc, k)
        slope, dd = _dot(k, d), _dot(d, d)
        fallback = ~(slope > _ASCENT * np.sqrt(gn2) * np.sqrt(dd))
        d[fallback] = k[fallback]
        slope[fallback] = dd[fallback] = gn2[fallback]
        h = _batched.skew_exp_factors(d)
        # Cap the step at t |D|_F <= pi, which bounds every angle of the
        # Cayley factor below 2 atan(pi/2) and keeps tD of order one at any
        # scale of the operator.
        t = np.minimum(1.0, np.pi / (np.sqrt(dd) + 1e-300))
        # at holds the positions in idx of the rows still backtracking, which
        # have not moved, so u holds their start; d[at] is scaled by t on
        # acceptance, so that it holds the accepted step.
        at = np.arange(idx.size)
        late = np.zeros(idx.size, dtype=bool)
        for j in range(_MAX_BACKTRACKS):
            rows = idx[at]
            trial = _batched.apply_skew_exp(u[rows], h, t)
            if j == 0:
                ft, e = self.objective.value_and_grad(trial, rows)
            else:
                ft = self.objective.value(trial, rows)
            ft = np.asarray(ft, dtype=float)
            ok = ft >= fval[rows] + _ARMIJO * t * slope
            acc = at[ok]
            if acc.size:
                u[rows[ok]] = trial[ok]
                fval[rows[ok]] = ft[ok]
                d[acc] *= t[ok][:, None, None]
                if j == 0:
                    history.store(loc[acc], d[acc], k[acc], tangent_project(trial[ok], e[ok]))
                else:
                    late[acc] = True
            if j == 0:
                del e  # freed before the value-only backtracks
            t *= _BACKTRACK
            stalled = ~ok & (t < _MIN_STEP)
            done[rows[stalled]] = True
            rest = ~ok & ~stalled
            at, h, slope, t = at[rest], h[rest], slope[rest], t[rest]
            if at.size == 0:
                break
        done[idx[at]] = True  # backtracking budget exhausted: stall
        late = np.flatnonzero(late)
        if late.size:
            fval[idx[late]], k_late = self._gradient(idx[late])
            history.store(loc[late], d[late], k[late], k_late)


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

    With coarse_first, every start ascends to _COARSE_TOL, and then only
    the _POLISHED best of each group, ties going to the earlier row,
    ascend on to _GRADIENT_TOL; the reports' start_values hold the coarse
    values of the others.  Without it, every start ascends to
    _GRADIENT_TOL at once.

    The elements may belong to several instances: instance i owns the
    contiguous elements from objective.offsets[i] on, and no group spans
    two instances.  Every budget is per instance, so each instance's
    reports are bit-identical to those of a call on that instance alone:
    the fine pass of instance i gets max_iterations minus the most coarse
    iterations of any of its starts.
    """
    groups = np.asarray(groups)
    ngroups = int(groups.max()) + 1
    state = _Ascent(objective, np.array(starts, dtype=complex))

    # The aggregate is a max, so only the best start's final value matters:
    # rank each group's starts by coarse value (the sort is stable, so ties
    # keep row order) and polish the top.
    if coarse_first:
        state.run(np.arange(state.nb), _COARSE_TOL, cfg.max_iterations)
        by_value = np.lexsort((-state.fval, groups))
        ranked = groups[by_value]
        rank = np.arange(state.nb) - np.searchsorted(ranked, ranked)
        polished = by_value[rank < _POLISHED]
        used = np.zeros(len(objective.offsets), dtype=int)
        np.maximum.at(used, state.owner, state.iterations)
        state.run(polished, _GRADIENT_TOL, cfg.max_iterations - used[state.owner])
    else:
        state.run(np.arange(state.nb), _GRADIENT_TOL, cfg.max_iterations)

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
                iterations=int(np.max(state.iterations[idx])),
                converged=bool(state.converged[best]),
                start_values=vals.copy(),
            )
        )
    return reports


def _maximize_blocks(objective_cls, rs, blocks, cfg: OptConfig, coarse_first: bool = True):
    """maximize_grouped over per-instance lists of start blocks; one report
    list per instance.

    rs holds the operators (anything with stacks a and b) of the instances,
    and blocks[i][j] = (p, starts) is group j of instance i: the parameter
    of its subproblem (an angle, a shift) and its start list.  Groups are
    numbered over the instances in order, instance i's rows start at
    offsets[i] (an instance with no groups repeats the next offset), and
    the objective is objective_cls(tuples, p per row, offsets).
    """
    starts, params, groups, offsets = [], [], [], []
    for inst in blocks:
        offsets.append(len(starts))
        for p, block in inst:
            starts.extend(block)
            groups.extend([len(params)] * len(block))
            params.append(p)
    groups = np.asarray(groups, dtype=int)
    tuples = [(r.a, r.b) for r in rs]
    objective = objective_cls(tuples, np.asarray(params)[groups], np.asarray(offsets))
    reports = iter(maximize_grouped(objective, groups, starts, cfg, coarse_first))
    return [[next(reports) for _ in inst] for inst in blocks]


def merge_reports(incumbent: OptReport, challenger: OptReport) -> OptReport:
    """Combine two ascents of the same subproblem, keeping the better value."""
    winner = challenger if challenger.value > incumbent.value else incumbent
    return OptReport(
        value=winner.value,
        maximizer=winner.maximizer,
        iterations=incumbent.iterations + challenger.iterations,
        converged=winner.converged,
        start_values=np.concatenate(
            [incumbent.start_values, challenger.start_values]
        ),
    )

