"""Multistart Riemannian ascent over the unitary group U(n).

Both computations this package runs — operator norms over unitaries and
directional suprema of unitary-orbit fields of values — are nonconvex
maximizations of the form max f(u), u in U(n).  The engine below runs all
starts as one batched ascent: the Euclidean gradient E of f is projected
to the left-trivialized direction K = skew(u*E), and each step is BFGS
in the Lie algebra u(n).  Vector transport is then the identity (Huang,
Gallivan & Absil, SIAM J. Optim. 2015), so every tangent vector of the
ascent (K, the direction D, the step and the BFGS pairs) is held as its
n^2 real coordinates in one orthonormal basis of u(n) under the inner
product Re tr(X*Y) (_Frame), and every inner product is a dot of n^2
reals.  Every start keeps one dense estimate H of the inverse Hessian, an
n^2 x n^2 matrix in those coordinates, and takes the direction D = H K.
U(n) enters a step through the frame's two maps alone, the coordinates
of skew(u*E) for each gradient and D's skew matrix for the retraction,
and the retraction itself.  That is the Cayley map
u <- u (I - tD/2)^-1 (I + tD/2), which keeps u unitary at the cost of one
small solve per trial (Wen & Yin, Math. Program. 2013), and t is chosen
by Armijo backtracking from t = 1, capped at t |D|_F <= pi; a start whose
D is not an ascent direction steps along K instead.  A start stalls when
the _MAX_BACKTRACKS trials of one step all fail; they count from the
capped t, so that rule does not read the operator's scale.  Every
stopping rule reads its own start's state alone.
When a start's step is accepted, H takes the BFGS update of the pair
(s, y) of the step and the change of K along it, and the start keeps K at
its new point.  The first trial of each step is evaluated with its
gradient, so a start accepted there costs one decomposition per step;
later trials are value-only, and the starts accepted at one of them take
their gradient in one call after the search.  A start begins with no
curvature: its step is _INITIAL_STEP K, and its first pair sets H to
<s, y>/<y, y> I before the update.  A start whose H K the cap shortens
begins so again, since its H is then far off the scale of f.  A start
may instead be an earlier report (OptReport): it then begins at that
report's maximizer with the estimate of the start that won there, so an
ascent from a known maximizer reuses the curvature found at it.
Objectives may carry per-element parameters (direction angles, shifts) so
a whole sweep of related subproblems runs as one batch; the grouped
driver then aggregates per subproblem.  Every start first ascends to a
coarse gradient tolerance; only the two best starts of each subproblem
then ascend to full precision, since the aggregate is their maximum, and
they keep their estimates from one pass into the next.
Each start has one iteration budget over both passes.
Values found are always certified lower bounds on the supremum; restart
agreement is the (empirical) quality signal, and the restart spread
compares those two polished values with the other starts' coarse ones.

One batch may also hold the sweeps of several instances (operators).
The objectives then apply each instance's operator to its own rows, one
GEMM per instance, and no start's budget reads another start;
_maximize_blocks lays out every such batch from per-instance lists of
start blocks.  The rows are split into slabs of whole instances of at
most _SLAB_ENTRIES entries (_row_entries per row), or of one instance.
Each slab is one multistart (_Ascent) with one BFGS history: it runs its
coarse pass, the fine pass of its polished starts and its subproblems'
reports, where only each subproblem's best start hands on its estimate,
before the next slab allocates anything.  That bounds a batch's peak
memory.  Every per-row kernel and every inner product is independent of
the rows beside it, so an instance's reports are bit-identical whether
it runs alone or in a batch, whatever the slabs.
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

# BFGS: a pair is skipped unless <s, y> exceeds _CURVATURE |s||y|, and a
# direction D falls back to K unless <K, D> exceeds _ASCENT |K||D|.
_CURVATURE = 1e-12
_ASCENT = 1e-10

# The initial estimate _INITIAL_STEP I, which makes the first step of a
# row with no curvature _INITIAL_STEP K; then the Armijo line
# search: backtracking factor, sufficient-increase constant, and most trials
# per step, after which a row stalls.
_INITIAL_STEP = 0.5
_BACKTRACK = 0.5
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 40

# Cap on a slab, rows * _row_entries(n): the row-sized temporaries of one
# step and the slab's estimates, not its arithmetic, set a batch's peak
# memory (see CHANGES.md).
_SLAB_ENTRIES = 6_144


@dataclass(frozen=True)
class OptConfig:
    """The settable values of the multistart ascent.

    restarts counts the Haar-random starts; the identity and the flip
    permutation are always added as deterministic starts.  max_iterations
    caps the steps of any one start over both passes; a step is one
    iteration however many trials its line search takes.  seed seeds
    the Haar starts and every sampled check.  The gradient tolerances, the
    initial step and the Armijo line-search constants are fixed module
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
    """Outcome of one multistart ascent.

    estimate is the inverse-Hessian estimate of the start that reached the
    maximizer, an n^2 x n^2 matrix that maps the coordinates of K in _Frame
    to those of the ascent's direction, or None
    where that start held no curvature or the report no longer needs it
    (verify._kept); an ascent started from the report begins with it.
    """

    value: float
    maximizer: np.ndarray
    # Most steps taken by any one start; merge_reports adds the counts of
    # the ascents it merges.
    iterations: int
    converged: bool
    start_values: np.ndarray
    estimate: np.ndarray | None = None

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


def flip_permutation(n: int) -> np.ndarray:
    return np.eye(n)[::-1].astype(complex).copy()


def default_starts(n: int, restarts: int, rng: np.random.Generator):
    starts = [np.eye(n, dtype=complex), flip_permutation(n)]
    starts.extend(haar_unitaries(n, restarts, rng))
    return starts


def _slabs(offsets: np.ndarray, rows: int, cap: int) -> list:
    """Split the rows 0..rows-1, of which instance i owns those from
    offsets[i] on, into consecutive ranges (lo, hi) of whole instances,
    each of at most cap rows unless it holds one instance alone."""
    cuts, prev = [0], 0
    for end in [*offsets[1:], rows]:
        if end - cuts[-1] > cap and cuts[-1] < prev < end:
            cuts.append(prev)
        prev = end
    return list(zip(cuts, [*cuts[1:], rows]))


def _inner(x, y) -> np.ndarray:
    """The inner product of each row of two (B, n^2) coordinate stacks."""
    return np.einsum("bi,bi->b", x, y)


class _Frame:
    """The orthonormal basis of u(n), the skew-Hermitian n x n matrices,
    under Re tr(X*Y), in whose n^2 real coordinates the ascent holds every
    tangent vector: for each i, Im X_ii, then sqrt(2) Re X_ij and
    sqrt(2) Im X_ij for each j > i.

    Its two maps are all the ascent knows of U(n) besides the retraction.
    pick holds where each coordinate's entry (i, j) sits in the real view of
    an n x n matrix (row-major, real part first), mirror where the same
    part of entry (j, i) sits, sign is -1 for a real part and +1 for an
    imaginary one, and half holds the weights 1/2 and sqrt(2)/2.
    """

    def __init__(self, n: int):
        pick, half = [], []
        for i in range(n):
            pick.append(2 * i * (n + 1) + 1)
            half.append(0.5)
            for j in range(i + 1, n):
                pick += [2 * (i * n + j), 2 * (i * n + j) + 1]
                half += [np.sqrt(0.5)] * 2
        self.n, self.pick, self.half = n, np.array(pick), np.array(half)
        i, j = np.divmod(self.pick // 2, n)
        part = self.pick % 2
        self.mirror, self.sign = 2 * (j * n + i) + part, 2.0 * part - 1.0

    def skew_part(self, u, e) -> np.ndarray:
        """The coordinates of skew(u*E) = (u*E - E*u)/2 for each row: the
        left-trivialized gradient at u of a Euclidean gradient E."""
        m = _batched.mm(np.conj(np.swapaxes(u, -1, -2)), e)
        m = m.reshape(len(m), -1).view(float)
        return (m.take(self.pick, axis=1) + self.sign * m.take(self.mirror, axis=1)) * self.half

    def matrix(self, c) -> np.ndarray:
        """The skew-Hermitian matrices of a (B, n^2) coordinate stack.

        The upper triangle T of X with half of X's diagonal holds the
        coordinates times half, and X = T - T*.
        """
        t = np.zeros((len(c), self.n, self.n), dtype=complex)
        t.reshape(len(c), -1).view(float)[:, self.pick] = c * self.half
        return t - np.conj(np.swapaxes(t, 1, 2))


def _row_entries(n: int) -> int:
    """What one row counts against _SLAB_ENTRIES: its n^2 matrix entries,
    or n^4/16 where its estimate of n^4 reals outgrows the 16 n^2 reals per
    row that the cap was sized for (n > 4)."""
    return max(n * n, n**4 // 16)


class _History:
    """The BFGS state of one slab's rows, indexed by position in the slab.

    Every tangent vector here is a row of n^2 coordinates of _Frame.  h[i]
    is row i's estimate of the inverse Hessian of -f, a symmetric
    n^2 x n^2 matrix, where paired[i] says that it holds curvature.  A row
    starts from its seed, an earlier report's estimate, or else unpaired:
    its direction is then exactly _INITIAL_STEP K, and its first stored
    pair (s, y) sets h[i] to <s, y>/<y, y> I before the update.  k is K at
    each row's current point, and a row's pair is stored at the end of the
    step that moved it, together with K at its new point.
    """

    def __init__(self, rows: int, n: int, seeds=None):
        self.h = np.zeros((rows, n * n, n * n))
        seeds = seeds or [None] * rows
        self.paired = np.array([seed is not None for seed in seeds], dtype=bool)
        for i in np.flatnonzero(self.paired):
            self.h[i] = seeds[i]
        self.k = np.zeros((rows, n * n))

    def _rows(self, rows) -> np.ndarray:
        """The estimates of the sorted rows: a view of h where they form a
        range, else a copy, which a caller that changes it writes back."""
        lo, hi = rows[0], rows[-1] + 1
        return self.h[lo:hi] if hi - lo == rows.size else self.h[rows]

    def store(self, loc, s, k_old, k_new) -> None:
        """The rows loc moved by the step s from where K was k_old to where
        it is k_new: keep k_new and update each row's estimate by the BFGS
        formula with the pair (s, y).

        s is the step in the Lie algebra and y = k_old - k_new the gradient
        change of -f; a pair without positive curvature is skipped, and
        leaves the estimate as it was.
        """
        self.k[loc] = k_new
        y = k_old - k_new
        sy = _inner(s, y)
        yy = _inner(y, y)
        keep = sy > _CURVATURE * np.sqrt(_inner(s, s)) * np.sqrt(yy)
        if not keep.any():
            return
        rows, s, y, sy, yy = loc[keep], s[keep], y[keep], sy[keep], yy[keep]
        fresh = ~self.paired[rows]
        if fresh.any():
            at, diag = rows[fresh], np.arange(self.h.shape[-1])
            self.h[at] = 0.0
            self.h[at[:, None], diag, diag] = (sy / yy)[fresh, None]
            self.paired[at] = True
        h, rho = self._rows(rows), 1.0 / sy
        # H + s w^T + w s^T is (I - rho s y^T) H (I - rho y s^T) + rho s s^T,
        # added in chunks of 2 B / n^2 rows, so that its temporary is no
        # larger than one (B, n, n) stack of the step.
        hy = np.einsum("bij,bj->bi", h, y)
        w = (0.5 * rho * (1.0 + rho * _inner(y, hy)))[:, None] * s
        w -= rho[:, None] * hy
        u, v = np.stack((s, w), axis=2), np.stack((w, s), axis=1)
        chunk = max(1, 2 * len(h) // h.shape[-1])
        for lo in range(0, len(h), chunk):
            h[lo:lo + chunk] += np.matmul(u[lo:lo + chunk], v[lo:lo + chunk])
        if h.base is not self.h:  # a copy (_rows)
            self.h[rows] = h

    def direction(self, loc, k) -> np.ndarray:
        """H K at the rows loc."""
        d = _INITIAL_STEP * k
        on = self.paired[loc]
        if on.any():
            d[on] = np.einsum("bij,bj->bi", self._rows(loc[on]), k[on])
        return d


class _Ascent:
    """One slab's multistart: the starts of the sorted rows of a batch,
    which are whole instances, and one BFGS history for all of its passes.

    Each step is BFGS on the left-trivialized directions K = skew(u*E):
    vector transport is then the identity, so each row's estimate lives in
    the Lie algebra and maps K to its direction.  Every array is indexed by
    position in the slab; rows[i] is the batch row of position i, which
    selects its instance and parameters in the objective.  A start that is
    a report begins at its maximizer with its estimate.
    """

    def __init__(self, objective, rows: np.ndarray, starts):
        self.objective = objective
        self.rows = rows
        self.u = np.array(
            [s.maximizer if isinstance(s, OptReport) else s for s in starts], dtype=complex
        )
        nb = rows.size
        self.frame = _Frame(objective.n)
        self.history = _History(
            nb, objective.n, [s.estimate if isinstance(s, OptReport) else None for s in starts]
        )
        self.fval = np.full(nb, np.nan)  # every row steps in the first run
        self.done = np.zeros(nb, dtype=bool)
        self.converged = np.zeros(nb, dtype=bool)
        self.iterations = np.zeros(nb, dtype=int)

    def multistart(self, groups: np.ndarray, cfg: OptConfig, coarse_first: bool) -> list:
        """One report per group of the slab (groups[i] is position i's), in
        group order: each group's best row, with its estimate.

        With coarse_first, every row ascends to _COARSE_TOL, and then, since
        a report is its group's maximum, only the _POLISHED best of each
        group (_best) ascend on to _GRADIENT_TOL, with the estimates of their
        coarse pass; otherwise every row ascends to _GRADIENT_TOL at once.
        """
        active = np.arange(self.rows.size)
        if coarse_first:
            self.run(active, _COARSE_TOL, cfg.max_iterations)
            active = _best(self.fval, groups, _POLISHED)
        self.run(active, _GRADIENT_TOL, cfg.max_iterations)
        reports = []
        for g in range(groups.min(), groups.max() + 1):
            at = np.flatnonzero(groups == g)
            best = at[int(np.argmax(self.fval[at]))]
            paired = self.history.paired[best]
            reports.append(
                OptReport(
                    value=float(self.fval[best]),
                    maximizer=self.u[best].copy(),
                    iterations=int(np.max(self.iterations[at])),
                    converged=bool(self.converged[best]),
                    start_values=self.fval[at],
                    estimate=self.history.h[best].copy() if paired else None,
                )
            )
        return reports

    def run(self, active: np.ndarray, gtol: float, max_iterations: int) -> None:
        """Ascend the rows at the sorted positions active until gradient
        tolerance or budget.

        Each row steps until it has taken max_iterations steps over every
        run so far, so its budget reads its own count alone.  The first
        step of a run takes each row's gradient anew.
        """
        self.done[active] = False
        self.converged[active] = False
        own = max_iterations - self.iterations[active]
        for it in range(int(own.max(initial=0))):
            loc = active[~self.done[active] & (own > it)]
            if loc.size == 0:
                break
            if it == 0:
                self.fval[loc], self.history.k[loc] = self._gradient(loc)
            self.iterations[loc] += 1
            self._step(loc, gtol)

    # _gradient and _step are methods of their own so that their row-sized
    # temporaries are freed at the end of each call: those temporaries set
    # the peak memory of a large slab.

    def _gradient(self, loc):
        """Objective values and tangent ascent directions at the positions loc."""
        ua = self.u[loc]
        fa, ea = self.objective.value_and_grad(ua, self.rows[loc])
        return fa, self.frame.skew_part(ua, ea)

    def _step(self, loc, gtol: float) -> None:
        """One BFGS direction and Armijo line search for the rows at the
        positions loc, from K = history.k.

        K, the direction D, the accepted step and the pair are coordinates
        of _Frame; D's skew matrix is built once, for the retraction's
        factors, and each new K comes from the frame's map of a gradient.

        The first trial is evaluated with its gradient, so a row accepted
        there has its new K at once.  Later trials are evaluated with the
        value alone; the rows accepted at one of them take their gradient in
        one call after the search.  Every row that moved then stores its
        pair, in one call.  A row whose _MAX_BACKTRACKS trials all fail
        stalls: it stops for good.
        """
        u, fval, done, history = self.u, self.fval, self.done, self.history
        k = history.k[loc]
        gn2 = _inner(k, k)
        hit = np.sqrt(gn2) <= gtol * (1.0 + np.abs(fval[loc]))
        done[loc[hit]] = True
        self.converged[loc[hit]] = True
        if hit.all():
            return
        loc, k, gn2 = loc[~hit], k[~hit], gn2[~hit]
        # Every row takes its direction D = H K (_INITIAL_STEP K for a row
        # with no curvature) with a first trial of t = 1, unless D is not an ascent
        # direction, when it falls back to D = K.  The test multiplies the
        # two norms: the product of their squares overflows once K exceeds
        # about 1e77.
        d = history.direction(loc, k)
        slope, dd = _inner(k, d), _inner(d, d)
        fallback = ~(slope > _ASCENT * np.sqrt(gn2) * np.sqrt(dd))
        d[fallback] = k[fallback]
        slope[fallback] = dd[fallback] = gn2[fallback]
        h = _batched.skew_exp_factors(self.frame.matrix(d))
        # Cap the step at t |D|_F <= pi, which bounds every angle of the
        # Cayley factor below 2 atan(pi/2) and keeps tD of order one at any
        # scale of the operator.  A row whose D the cap shortens holds an
        # estimate far off the scale of f, which its later pairs would only
        # slowly correct: its pair of this step sets it anew.
        t = np.minimum(1.0, np.pi / (np.sqrt(dd) + 1e-300))
        history.paired[loc[t < 1.0]] = False
        # at holds the positions in loc of the rows still backtracking, which
        # have not moved, so u holds their start; d[at] is scaled by t on
        # acceptance, so that it holds the accepted step, and k_new[at]
        # then takes K at the new point.
        at = np.arange(loc.size)
        moved = np.zeros(loc.size, dtype=bool)
        late = np.zeros(loc.size, dtype=bool)
        k_new = np.empty_like(k)
        for j in range(_MAX_BACKTRACKS):
            pos = loc[at]
            trial = _batched.apply_skew_exp(u[pos], h, t)
            if j == 0:
                ft, e = self.objective.value_and_grad(trial, self.rows[pos])
            else:
                ft = self.objective.value(trial, self.rows[pos])
            ft = np.asarray(ft, dtype=float)
            ok = ft >= fval[pos] + _ARMIJO * t * slope
            acc = at[ok]
            if acc.size:
                u[pos[ok]] = trial[ok]
                fval[pos[ok]] = ft[ok]
                d[acc] *= t[ok][:, None]
                moved[acc] = True
                if j == 0:
                    k_new[acc] = self.frame.skew_part(trial[ok], e[ok])
                else:
                    late[acc] = True
            if j == 0:
                del e  # freed before the value-only backtracks
            t *= _BACKTRACK
            at, h, slope, t = at[~ok], h[~ok], slope[~ok], t[~ok]
            if at.size == 0:
                break
        done[loc[at]] = True  # backtracking budget exhausted: stall
        late = np.flatnonzero(late)
        if late.size:
            fval[loc[late]], k_new[late] = self._gradient(loc[late])
        moved = np.flatnonzero(moved)
        if moved.size:
            history.store(loc[moved], d[moved], k[moved], k_new[moved])


def _best(fval: np.ndarray, groups: np.ndarray, keep: int) -> np.ndarray:
    """The sorted positions of the keep highest values fval of each group,
    ties going to the earlier position."""
    by_value = np.lexsort((-fval, groups))
    ranked = groups[by_value]
    return np.sort(by_value[np.arange(by_value.size) - np.searchsorted(ranked, ranked) < keep])


def maximize_grouped(
    objective,
    groups: np.ndarray,
    starts,
    cfg: OptConfig,
    coarse_first: bool = True,
) -> list[OptReport]:
    """One batched ascent for a family of subproblems sharing an objective form.

    groups[i] names the subproblem element i belongs to (the objective's
    per-element parameters must agree within a group); the return value is
    one report per group, aggregated by maximum.  Equivalent to independent
    per-group multistarts, but the whole family shares each batched kernel
    call.  starts is a stack or a sequence of unitaries and of reports; a
    report starts at its maximizer with its estimate.  They are copied,
    never ascended in place.

    With coarse_first, every start ascends to _COARSE_TOL, and then only
    the _POLISHED best of each group, ties going to the earlier row,
    ascend on to _GRADIENT_TOL with the estimates of their coarse pass;
    the reports' start_values hold the coarse values of the others.
    Without it, every start ascends to _GRADIENT_TOL at once.

    Each start takes at most cfg.max_iterations steps over both passes, so
    a polished start's fine pass gets what its own coarse pass left.  The
    elements may belong to several instances: instance i owns the
    contiguous elements from objective.offsets[i] on, no group spans two
    instances, and a later instance's groups are numbered above an earlier
    one's.  The rows run in slabs of whole instances (_slabs), one after
    another: each slab takes both passes and builds its own groups'
    reports (_Ascent.multistart) before the next slab allocates anything.
    No start's budget reads another start, so each instance's reports are
    bit-identical to those of a call on that instance alone.
    """
    groups = np.asarray(groups)
    cap = _SLAB_ENTRIES // _row_entries(objective.n)  # rows of a slab
    reports = []
    for lo, hi in _slabs(objective.offsets, groups.size, cap):
        # The slab's state is freed at the end of this statement.
        reports += _Ascent(objective, np.arange(lo, hi), starts[lo:hi]).multistart(
            groups[lo:hi], cfg, coarse_first
        )
    return reports


def _maximize_blocks(objective_cls, rs, blocks, cfg: OptConfig):
    """maximize_grouped over per-instance lists of start blocks; one report
    list per instance.

    rs holds the operators (anything with stacks a and b) of the instances,
    and blocks[i][j] = (p, starts) is group j of instance i: the parameter
    of its subproblem (an angle, a shift) and its start list, of unitaries
    and reports (maximize_grouped).  Groups are
    numbered over the instances in order, instance i's rows start at
    offsets[i] (an instance with no groups repeats the next offset), and
    the objective is objective_cls(tuples, p per row, offsets).  The coarse
    pass runs when some block has more than _POLISHED starts: it only
    picks which starts to polish, and with fewer every start is polished.
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
    coarse_first = bool(np.any(np.bincount(groups) > _POLISHED))
    reports = iter(maximize_grouped(objective, groups, starts, cfg, coarse_first))
    return [[next(reports) for _ in inst] for inst in blocks]


def merge_reports(incumbent: OptReport, challenger: OptReport) -> OptReport:
    """Combine two ascents of the same subproblem, keeping the better value.

    The iterations add up: after a chained polish, a direction's count is
    the most steps of any start of its sweep plus those of its polish.
    """
    winner = challenger if challenger.value > incumbent.value else incumbent
    return OptReport(
        value=winner.value,
        maximizer=winner.maximizer,
        iterations=incumbent.iterations + challenger.iterations,
        converged=winner.converged,
        start_values=np.concatenate(
            [incumbent.start_values, challenger.start_values]
        ),
        estimate=winner.estimate,
    )

