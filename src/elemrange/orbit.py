"""Both sides of the orbit formula for the numerical range of R_{a,b}.

The orbit side samples the union of fields of values W(sum_i u*a_i u b_i)
over unitaries u: for each grid direction the support is maximized over
U(n).  The operator side evaluates the support of the numerical range of
R as an element of B(M_n) through the ray limit

    h(theta) = inf_{s>0} ( |R + s e^{i theta} Id| - s ),

whose finite-s evaluations g(s) decrease monotonically to h(theta); the
last decrement of the schedule is reported as the residual bias bound.

Both sides run the same cold sweep (``_sweep``): every direction's
multistart as one grouped batch, then a second grouped pass that
re-ascends each direction from its predecessor's maximizer on the circle.
The operator side sweeps its whole grid.  The orbit side sweeps a coarse
sub-grid of at least 8 directions and then doubles it: the maximizer of a
support moves continuously with theta except across a face of the region,
so each new midpoint starts from its two neighbours' maximizers, and from
I and the flip permutation, instead of a multistart; next to a direction
whose search found several maxima it takes the multistart's Haar starts
too.  The whole grid is chain-polished once at the end.  The operator
side's schedule of shifts is decided here alone, from the operator's scale.
After its first-shift sweep, every later shift of every direction ascends
from that direction's first-shift maximizer, all in one grouped ascent.
Every start at a known maximizer (a predecessor, a neighbour, a warm start
given as a report, a first-shift maximizer) is that maximizer's report, so
its ascent begins with the inverse-Hessian estimate found there
(unitary_opt.OptReport.estimate).

Both regions take a list of operators on one M_n and return one estimate
per operator.  Each phase runs one grouped ascent for all of them: the
rows of an operator are contiguous, the objectives apply each operator by
its own GEMM on exactly its own rows, and the ascent gives every start
an iteration budget of its own, so each estimate is bit-identical to the
one its operator gets alone.  The witness cloud and the region stay per
operator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _batched
from .elemop import KTupleOperator, _batch_dim, russo_dye_norm
from .region import SupportRegion, cloud_supports, directions, region_from_supports
from .unitary_opt import (
    OptConfig,
    OptReport,
    OrbitSupportObjective,
    ShiftedNormObjective,
    _maximize_blocks,
    default_starts,
    merge_reports,
)

SEVERAL_MAXIMA_REL = 1e-4
DEFAULT_SMAX_FACTOR = 64.0

# Fixed stream tags so every derived random stream is a pure function of
# the configured seed.
_STREAM_ORBIT = 11
_STREAM_BANACH = 13


@dataclass
class RangeEstimate:
    """A computed region plus the diagnostics that qualify it.

    g_schedules and s_schedule are present for the operator (ray-limit)
    side: g_schedules is an (m, S) array whose row j holds direction j's g
    at every shift of s_schedule, which has S >= 2.  samples is the witness
    cloud of the orbit side, one boundary point of W(sum u*a_i u b_i) per
    direction, at that direction's maximizer u.
    """

    region: SupportRegion
    reports: list
    scale: float
    g_schedules: np.ndarray | None = None
    s_schedule: np.ndarray | None = None
    samples: np.ndarray | None = None

    @property
    def maximizers(self) -> list:
        return [r.maximizer for r in self.reports]

    @property
    def residuals(self) -> np.ndarray | None:
        """Last decrement g[:, -2] - g[:, -1] of each direction's ray schedule."""
        if self.g_schedules is None:
            return None
        return self.g_schedules[:, -2] - self.g_schedules[:, -1]

    @property
    def restart_spreads(self) -> np.ndarray:
        return np.array([r.spread for r in self.reports])

    @property
    def max_residual(self) -> float:
        res = self.residuals
        if res is None:
            return 0.0
        return float(np.max(np.maximum(res, 0.0)))


def check_smax_factor(smax_factor: float) -> None:
    """Reject a largest-shift factor that is not finite and >= 16."""
    if not (np.isfinite(smax_factor) and smax_factor >= 16):
        raise ValueError(f"smax_factor must be finite and >= 16, got {smax_factor}")


def default_s_schedule(
    scale: float, smax_factor: float = DEFAULT_SMAX_FACTOR
) -> np.ndarray:
    """Doubling shift magnitudes 8*scale, 16*scale, ... up to smax_factor*scale."""
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    check_smax_factor(smax_factor)
    factors = [8.0]
    while factors[-1] * 2 <= smax_factor:
        factors.append(factors[-1] * 2)
    if factors[-1] != smax_factor:
        factors.append(float(smax_factor))
    return float(scale) * np.array(factors)


def _orbit_matrices(r: KTupleOperator, us: np.ndarray) -> np.ndarray:
    """sum_i u* a_i u b_i for a stack of unitaries, term by term in order of i.

    The witnesses read these matrices, so they do not go through the
    ascent's GEMM (``_batched.ElementaryMatrix``): a fault in that kernel
    moves the optimized supports but not the witnesses, and the hull check
    sees the gap.  Each row's bits are its own.
    """
    uh = np.conj(np.swapaxes(us, -1, -2))
    return sum(_batched.mm(_batched.mm(uh, a), _batched.mm(us, b)) for a, b in zip(r.a, r.b))


def _fov_witnesses(c: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Boundary point v* c_j v of W(c_j) in the direction thetas[j], for each j.

    Each row's bits are its own in any call of two or more rows; numpy's
    einsum sums a call of a single 2x2 row in another order.
    """
    _, v = _batched.top_eigh(_batched._herm(c, np.exp(-1j * thetas)[:, None, None]))
    return np.einsum("bi,bij,bj->b", np.conj(v), c, v)


def orbit_witnesses(r: KTupleOperator, us: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Boundary point of W(sum_i u_j* a_i u_j b_i) in the direction thetas[j],
    for each unitary u_j: one point of the orbit union per unitary."""
    return _fov_witnesses(_orbit_matrices(r, us), thetas)


def _witnesses_at_own_angle(r: KTupleOperator, us: np.ndarray, thetas: np.ndarray):
    """The witness cloud: each direction's maximizer u_j witnessed at theta_j.

    These points realize the optimized support values exactly, so the
    witness cloud's hull touches the orbit region in every grid direction.
    """
    return orbit_witnesses(r, us, thetas)


def _sweep_starts(n: int, m: int, cfg: OptConfig, stream: int, at=None) -> list:
    """Fresh multistart points for the directions at (default: all) of an
    m-grid, one block each.

    The points depend only on cfg.seed, the stream and the direction's
    index on the m-grid, so they are drawn once and shared by every
    instance, and a sub-grid's blocks are those the whole grid gives it.
    """
    children = np.random.SeedSequence([cfg.seed, stream]).spawn(m)
    at = range(m) if at is None else at
    return [default_starts(n, cfg.restarts, np.random.default_rng(children[j])) for j in at]


# Iteration budget of the chained polish pass; partial ascents remain valid
# lower bounds and the incumbents are already at full precision.
_CHAIN_BUDGET = 30


def _chain_polish(reports, objective_cls, rs, params, cfg: OptConfig, every: int = 1):
    """Grouped warm-continuation pass implementing direction chaining.

    Direction j of every instance i, for every j that is a multiple of
    every, with parameter params[i][j], re-ascends from one start, the
    report of direction j - 1 on the circle (direction 0 from direction
    m - 1), so from its maximizer with its estimate, all in one batch;
    results merge in by max.  A direction's own
    maximizer and any warm point were already starts of the sweep, under
    the same objective, so they are not ascended again.
    """
    blocks = [
        [(ps[j], [reps[j - 1]]) for j in range(0, len(ps), every)]
        for reps, ps in zip(reports, params)
    ]
    capped = replace(cfg, max_iterations=min(_CHAIN_BUDGET, cfg.max_iterations))
    polished = _maximize_blocks(objective_cls, rs, blocks, capped)
    merged = [list(reps) for reps in reports]
    for reps, pols in zip(merged, polished):
        reps[::every] = [merge_reports(rep, pol) for rep, pol in zip(reps[::every], pols)]
    return merged


def _sweep(objective_cls, rs, params, cfg: OptConfig, shared, warm):
    """Multistart over all m directions of every instance, then the chained
    polish, both as one grouped ascent; one report list per instance.

    params[i][j] is the objective's parameter of direction j of instance i,
    shared[j] its fresh starts (_sweep_starts) and warm[i][j] a tuple of
    extra starts of it.
    """
    blocks = [
        [(p, [*block, *extra]) for p, block, extra in zip(ps, shared, inst, strict=True)]
        for ps, inst in zip(params, warm)
    ]
    reports = _maximize_blocks(objective_cls, rs, blocks, cfg)
    return _chain_polish(reports, objective_cls, rs, params, cfg)


def _midpoint_starts(left, right, fresh: list) -> list:
    """The starts of a new midpoint of a doubled grid, from the reports of
    its two neighbours and the fresh starts a sweep of the whole grid gives
    it (I, the flip permutation, then the Haar starts): the neighbours'
    reports (their maximizers with their estimates), I and the flip, and
    the Haar starts too where either neighbour's search found more than one
    maximum.

    The neighbours are not enough.  For a derivation by normal matrices a
    neighbour's maximizer is an exact critical point of the midpoint's
    objective, where an ascent can stay: started from the neighbours alone,
    a midpoint missed a vertex whose normal cone lies strictly between the
    neighbours' angles.  Where the objective has several maxima, one that is
    highest only between the two neighbours can be missed by all four
    starts.  A neighbour's start values then differ by more than
    SEVERAL_MAXIMA_REL (1 + |h|), while starts that end on one maximum, at
    the coarse tolerance, differ by about 1e-6 (1 + |h|).
    """
    several = any(
        rep.spread > SEVERAL_MAXIMA_REL * (1.0 + abs(rep.value)) for rep in (left, right)
    )
    return [left, right, *(fresh if several else fresh[:2])]


def _doubled(reports, rs, thetas: np.ndarray, step: int, cfg: OptConfig):
    """Every instance's reports on the grid thetas[::2 step], doubled to
    thetas[::step].

    The new midpoint j, at thetas[step::2 step][j], lies between directions
    j and j + 1 (mod the grid) and ascends from _midpoint_starts of theirs,
    all midpoints of all instances in one grouped ascent.  The reports come
    back in grid order.
    """
    m = len(thetas)
    fresh = _sweep_starts(rs[0].n, m, cfg, _STREAM_ORBIT, range(step, m, 2 * step))
    blocks = [
        [
            (t, _midpoint_starts(reps[j], reps[(j + 1) % len(reps)], fresh[j]))
            for j, t in enumerate(thetas[step::2 * step])
        ]
        for reps in reports
    ]
    new = _maximize_blocks(OrbitSupportObjective, rs, blocks, cfg)
    return [[rep for pair in zip(old, mid) for rep in pair] for old, mid in zip(reports, new)]


def _orbit_estimate(r: KTupleOperator, reports, thetas: np.ndarray):
    """One instance's orbit region from its sweep reports and the witness cloud."""
    maximizers = np.stack([rep.maximizer for rep in reports])
    h_opt = np.array([rep.value for rep in reports])
    witnesses = _witnesses_at_own_angle(r, maximizers, thetas)
    h = np.maximum(h_opt, cloud_supports(witnesses, len(thetas)))
    scale = max(1.0, float(np.max(np.abs(h))))
    return RangeEstimate(
        region=region_from_supports(h), reports=reports, scale=scale, samples=witnesses
    )


def orbit_region(
    rs: list[KTupleOperator], m: int = 64, cfg: OptConfig | None = None
) -> list[RangeEstimate]:
    """Orbit-side region of each operator: per-direction optimized supports
    plus witness cloud.

    The witness cloud holds one point per direction theta_j: the boundary
    point of W(sum u*a_i u b_i) at theta_j for that direction's maximizer
    u.  Witness points are certified members of the orbit union, so the
    region support in each direction is the larger of the optimized value
    and the cloud's own support there.

    The optimized supports come from a cold sweep of the sub-grid
    directions(m)[::2^j] of m/2^j >= 8 directions, with j as large as m
    allows, then j doublings (``_doubled``) and a chained polish of the
    whole grid; an m that cannot be halved to 8 or more directions (8, 10,
    12, 14, any odd m) is swept whole.  Every direction's fresh starts are
    the ones a sweep of the whole grid gives it.  The operators act on
    one M_n; each phase runs as one grouped ascent, and each estimate is the
    one its operator gets alone.
    """
    if m < 8:
        raise ValueError("orbit_region needs at least 8 directions")
    cfg = cfg or OptConfig()
    _batch_dim(rs)  # one M_n, or ValueError
    thetas = directions(m)
    step = 1
    while m % (2 * step) == 0 and m // (2 * step) >= 8:
        step *= 2
    shared = _sweep_starts(rs[0].n, m, cfg, _STREAM_ORBIT, range(0, m, step))
    reports = _sweep(
        OrbitSupportObjective, rs, [thetas[::step]] * len(rs), cfg, shared,
        [[()] * (m // step)] * len(rs),
    )
    doubled = step > 1
    while step > 1:
        step //= 2
        reports = _doubled(reports, rs, thetas, step, cfg)
    if doubled:
        # A direction of an earlier grid can reach its maximum only from a
        # midpoint found after it: each re-ascends once from its predecessor
        # on the whole grid, as in an undoubled sweep.  The last midpoints'
        # predecessors were already their starts.
        reports = _chain_polish(reports, OrbitSupportObjective, rs, [thetas] * len(rs), cfg, 2)
    return [_orbit_estimate(r, reps, thetas) for r, reps in zip(rs, reports)]


def _check_per_operator(rs, m: int, scales, warm_starts) -> None:
    """Reject scales or warm_starts that do not fit the operators and the
    m-grid, naming the operator by its label, else its index."""
    for name, given in (("scales", scales), ("warm_starts", warm_starts)):
        if given is not None and len(given) != len(rs):
            raise ValueError(
                f"{name} needs one entry per operator: got {len(given)} for {len(rs)}"
            )
    for i, (r, ws) in enumerate(zip(rs, warm_starts or ())):
        shapes = sorted({np.shape(u.maximizer if isinstance(u, OptReport) else u) for u in ws})
        if len(ws) != m or shapes != [(r.n, r.n)]:
            name = repr(r.label) if r.label else f"operator {i}"
            raise ValueError(f"warm_starts of {name} need {m} {r.n}x{r.n} matrices, one per "
                             f"direction: got {len(ws)} of shapes {shapes}")


def banach_region(
    rs: list[KTupleOperator],
    m: int = 64,
    cfg: OptConfig | None = None,
    scales=None,
    smax_factor: float = DEFAULT_SMAX_FACTOR,
    warm_starts=None,
) -> list[RangeEstimate]:
    """Operator-side region of each operator from per-direction ray-limit
    evaluations.

    The shifts of operator i are ``default_s_schedule(scales[i],
    smax_factor)``, with scales[i] defaulting to ``russo_dye_norm`` of it
    plus 1.  Every direction runs the whole schedule, so every g ends on
    the same two shifts.  warm_starts, when given, holds one list per
    operator of one start per direction, a unitary or a report (for
    example the orbit side's, which brings its estimate along), added to
    every schedule optimization of that direction; scales and warm_starts
    that do not fit are a ValueError before any work.  This is an outer
    approximation of the operator's numerical range whenever the
    per-direction norm optimizations reach their suprema; undershoot is
    reported through residuals and restart spreads.

    The operators act on one M_n.  The first shift is one grouped sweep of
    all of them.  Every later shift s_1 ... s_{S-1} of every direction of
    every operator is then one block of a single grouped ascent, shift-major
    within each operator, with parameter -s_t e^{i theta_j} and two starts:
    direction j's first-shift report, so its maximizer with its estimate,
    and its warm start.  Each estimate's g_schedules is the (m, S) array
    g[:, t] = value - s_t, its region is that of g[:, -1] and its reports
    those of the last shift, whose restart spread
    compares the ascent from the first-shift maximizer with the one from the
    warm start.  Each estimate is the one its operator gets alone.
    """
    if m < 8:
        raise ValueError("banach_region needs at least 8 directions")
    check_smax_factor(smax_factor)
    cfg = cfg or OptConfig()
    _batch_dim(rs)  # one M_n, or ValueError
    _check_per_operator(rs, m, scales, warm_starts)
    if scales is None:
        scales = [rep.value + 1.0 for rep in russo_dye_norm(rs, cfg)]
    scales = [float(s) for s in scales]
    schedules = [default_s_schedule(s, smax_factor) for s in scales]
    phases = np.exp(1j * directions(m))

    warm = [[()] * m] * len(rs)
    if warm_starts is not None:
        warm = [[(u,) for u in ws] for ws in warm_starts]

    # Full multistart at the smallest shift, one grouped sweep.
    first = _sweep(
        ShiftedNormObjective, rs, [-sched[0] * phases for sched in schedules], cfg,
        _sweep_starts(rs[0].n, m, cfg, _STREAM_BANACH), warm,
    )
    # Every later shift of every direction of every operator, shift-major,
    # re-ascends from that direction's first-shift report and its warm
    # start, all in one grouped ascent.
    blocks = [
        [(z, [rep, *x]) for s in sched[1:] for rep, x, z in zip(reps, ws, -s * phases)]
        for reps, ws, sched in zip(first, warm, schedules)
    ]
    later = _maximize_blocks(ShiftedNormObjective, rs, blocks, cfg)

    estimates = []
    for reps, more, scale, sched in zip(first, later, scales, schedules):
        g = np.array([rep.value for rep in [*reps, *more]]).reshape(len(sched), m).T - sched
        estimates.append(RangeEstimate(
            region=region_from_supports(g[:, -1]), reports=more[-m:], scale=scale,
            g_schedules=g, s_schedule=sched,
        ))
    return estimates
