"""Both sides of the orbit formula for the numerical range of R_{a,b}.

The orbit side samples the union of fields of values W(sum_i u*a_i u b_i)
over unitaries u: for each grid direction the support is maximized over
U(n).  The operator side evaluates the support of the numerical range of
R as an element of B(M_n) through the ray limit

    h(theta) = inf_{s>0} ( |R + s e^{i theta} Id| - s ),

whose finite-s evaluations g(s) decrease monotonically to h(theta); the
last decrement of the schedule is reported as the residual bias bound.

Both sides run the same sweep (``_sweep``): every direction's multistart
as one grouped batch, then a second grouped pass that re-ascends each
direction from its neighbor's maximizer.  The operator side's schedule of
shifts is decided here alone, from the operator's scale.

Both regions take a list of operators on one M_n and return one estimate
per operator.  Each phase runs one grouped ascent for all of them: the
rows of an operator are contiguous, the objectives apply each operator by
its own GEMM on exactly its own rows, and the ascent keeps every
iteration budget per operator, so each estimate is bit-identical to the
one its operator gets alone.  The witness cloud and the region stay per
operator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _batched
from .elemop import KTupleOperator, _batch_dim, apply_batched, russo_dye_norm
from .linalg import haar_unitaries
from .region import SupportRegion, cloud_supports, directions, region_from_supports
from .unitary_opt import (
    _SLAB_ENTRIES,
    OptConfig,
    OrbitSupportObjective,
    ShiftedNormObjective,
    default_starts,
    maximize_grouped,
    merge_reports,
)

WITNESS_ANGLES = 32
EARLY_STOP_REL = 1e-4
DEFAULT_HAAR_SAMPLES = 64
DEFAULT_SMAX_FACTOR = 64.0

# Fixed stream tags so every derived random stream is a pure function of
# the configured seed.
_STREAM_ORBIT = 11
_STREAM_BANACH = 13
_STREAM_CLOUD = 17


@dataclass
class RangeEstimate:
    """A computed region plus the diagnostics that qualify it.

    g_schedules and s_schedule are present for the operator (ray-limit)
    side; samples is the witness point cloud of the orbit side.
    """

    region: SupportRegion
    reports: list
    scale: float
    g_schedules: list | None = None
    s_schedule: np.ndarray | None = None
    samples: np.ndarray | None = None

    @property
    def maximizers(self) -> list:
        return [r.maximizer for r in self.reports]

    @property
    def residuals(self) -> np.ndarray | None:
        """Last decrement g[-2] - g[-1] of each direction's ray schedule."""
        if self.g_schedules is None:
            return None
        return np.array([g[-2] - g[-1] for g in self.g_schedules])

    @property
    def restart_spreads(self) -> np.ndarray:
        return np.array([r.spread for r in self.reports])

    @property
    def max_residual(self) -> float:
        res = self.residuals
        if res is None or len(res) == 0:
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
    """sum_i u* a_i u b_i for a stack of unitaries."""
    return _batched.mm(np.conj(np.swapaxes(us, -1, -2)), apply_batched(r, us))


def _fov_witnesses(c: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Boundary points of W(c_j) in the directions thetas[j, :], row by row.

    The rows (j, a) run in slabs of at most _SLAB_ENTRIES matrix entries
    (or of one c_j), which bound the temporaries; every row's work is its
    own, so the slabs do not change its bits.
    """
    count, width = thetas.shape
    out = np.empty(count * width, dtype=complex)
    step = max(1, _SLAB_ENTRIES // (width * c.shape[-1] ** 2))
    for lo in range(0, count, step):
        cs = np.repeat(c[lo : lo + step], width, axis=0)
        rc = np.exp(-1j * thetas[lo : lo + step].ravel())[:, None, None] * cs
        h = (rc + np.conj(np.swapaxes(rc, -1, -2))) / 2.0
        _, v = _batched.top_eigh(h)
        out[lo * width : lo * width + len(cs)] = np.einsum("bi,bij,bj->b", np.conj(v), cs, v)
    return out


def orbit_witnesses(r: KTupleOperator, us: np.ndarray, n_angles: int = WITNESS_ANGLES):
    """Boundary witness points of W(sum u*a_i u b_i) for each unitary."""
    th = directions(n_angles)
    return _fov_witnesses(_orbit_matrices(r, us), np.broadcast_to(th, (len(us), n_angles)))


def _witnesses_at_own_angle(r: KTupleOperator, us: np.ndarray, thetas: np.ndarray):
    """Witness of each unitary's field of values at its own direction theta_j.

    These points realize the optimized support values exactly, so the
    witness cloud's hull touches the orbit region in every grid direction.
    """
    return _fov_witnesses(_orbit_matrices(r, us), thetas[:, None])


def _stack_blocks(blocks, extra=None):
    """(starts, groups, offsets) of per-instance lists of start blocks.

    blocks[i][j], plus extra[i][j] when extra is given, is one group of
    instance i; groups are numbered over the instances in order, and
    offsets[i] is the first row of instance i.  starts is a list of
    matrices, which maximize_grouped stacks in its one copy of the starts.
    """
    starts, groups, offsets = [], [], []
    group = 0
    for i, inst_blocks in enumerate(blocks):
        offsets.append(len(starts))
        for j, block in enumerate(inst_blocks):
            if extra is not None:
                block = [*block, np.asarray(extra[i][j], dtype=complex)]
            starts.extend(block)
            groups.extend([group] * len(block))
            group += 1
    return starts, np.asarray(groups), np.asarray(offsets)


def _by_instance(reports, m: int) -> list:
    """Split a flat list of per-direction reports into one list per instance."""
    return [reports[i : i + m] for i in range(0, len(reports), m)]


def _sweep_starts(n: int, m: int, cfg: OptConfig, stream: int, count: int, extra=None):
    """Fresh multistart points for every direction of count instances.

    The points depend only on cfg.seed and the stream, so they are drawn
    once and shared by every instance; extra[i][j] adds a warm point to
    direction j of instance i.
    """
    children = np.random.SeedSequence([cfg.seed, stream]).spawn(m)
    blocks = [default_starts(n, cfg.restarts, np.random.default_rng(c)) for c in children]
    return _stack_blocks([blocks] * count, extra)


# Iteration budget of the chained polish pass; partial ascents remain valid
# lower bounds and the incumbents are already at full precision.
_CHAIN_BUDGET = 30


def _chain_polish(reports, make_objective, cfg: OptConfig, extra=None):
    """Grouped warm-continuation pass implementing direction chaining.

    Every direction of every instance re-ascends from its own maximizer,
    its predecessor's, and any extra warm point, all in one batch; results
    merge in by max.
    """
    blocks = []
    for reps in reports:
        inst_blocks = [[rep.maximizer] for rep in reps]
        for block, prev in zip(inst_blocks[1:], reps):
            block.append(prev.maximizer)
        blocks.append(inst_blocks)
    starts, groups, offsets = _stack_blocks(blocks, extra)
    capped = replace(cfg, max_iterations=min(_CHAIN_BUDGET, cfg.max_iterations))
    polished = maximize_grouped(
        make_objective(groups, offsets), groups, starts, capped, coarse_first=False
    )
    return [
        [merge_reports(rep, pol) for rep, pol in zip(reps, pols)]
        for reps, pols in zip(reports, _by_instance(polished, len(reports[0])))
    ]


def _sweep(
    n: int, count: int, m: int, cfg: OptConfig, stream: int, make_objective, extra=None
):
    """Multistart over all m directions of count instances, then the chained
    polish, both as one grouped ascent; one report list per instance.

    Group i*m + j is direction j of instance i; make_objective(groups,
    offsets) builds the objective for the stacked starts.
    """
    starts, groups, offsets = _sweep_starts(n, m, cfg, stream, count, extra)
    reports = maximize_grouped(make_objective(groups, offsets), groups, starts, cfg)
    return _chain_polish(_by_instance(reports, m), make_objective, cfg, extra)


def _orbit_estimate(r: KTupleOperator, reports, haar: np.ndarray, thetas: np.ndarray):
    """One instance's orbit region from its sweep reports and the witness cloud."""
    maximizers = np.stack([rep.maximizer for rep in reports])
    h_opt = np.array([rep.value for rep in reports])
    witnesses = np.concatenate([
        orbit_witnesses(r, np.concatenate([haar, maximizers])),
        _witnesses_at_own_angle(r, maximizers, thetas),
    ])
    h = np.maximum(h_opt, cloud_supports(witnesses, len(thetas)))
    scale = max(1.0, float(np.max(np.abs(h))))
    return RangeEstimate(
        region=region_from_supports(h), reports=reports, scale=scale, samples=witnesses
    )


def orbit_region(
    rs: list[KTupleOperator],
    m: int = 64,
    cfg: OptConfig | None = None,
    n_haar: int = DEFAULT_HAAR_SAMPLES,
) -> list[RangeEstimate]:
    """Orbit-side region of each operator: per-direction optimized supports
    plus witness cloud.

    The witness cloud collects boundary points of W(sum u*a_i u b_i) for
    n_haar Haar samples and for every per-direction maximizer.  Witness
    points are certified members of the orbit union, so the region support
    in each direction is the larger of the optimized value and the cloud's
    own support there.  The operators act on one M_n; their sweeps run as
    one grouped ascent, and each estimate is the one its operator gets alone.
    """
    if m < 8:
        raise ValueError("orbit_region needs at least 8 directions")
    cfg = cfg or OptConfig()
    n = _batch_dim(rs)
    thetas = directions(m)
    tuples = [(r.a, r.b) for r in rs]

    reports = _sweep(
        n, len(rs), m, cfg, _STREAM_ORBIT,
        lambda g, off: OrbitSupportObjective(tuples, thetas[g % m], off),
    )
    haar = haar_unitaries(n, n_haar, np.random.default_rng([cfg.seed, _STREAM_CLOUD]))
    return [_orbit_estimate(r, reps, haar, thetas) for r, reps in zip(rs, reports)]


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
    plus 1; a direction stops early once its g decrement falls under
    EARLY_STOP_REL * scales[i].  warm_starts, when given, holds one list
    per operator of one unitary per direction (for example the orbit
    side's maximizers), added to every schedule optimization of that
    direction.  This is an outer approximation of the operator's numerical
    range whenever the per-direction norm optimizations reach their
    suprema; undershoot is reported through residuals and restart spreads.

    The operators act on one M_n.  The first shift is one grouped sweep of
    all of them; every later shift advances all their still-active
    directions as one grouped ascent, and each estimate is the one its
    operator gets alone.
    """
    if m < 8:
        raise ValueError("banach_region needs at least 8 directions")
    check_smax_factor(smax_factor)
    cfg = cfg or OptConfig()
    n = _batch_dim(rs)
    if scales is None:
        scales = [rep.value + 1.0 for rep in russo_dye_norm(rs, cfg)]
    if len(scales) != len(rs) or (
        warm_starts is not None and len(warm_starts) != len(rs)
    ):
        raise ValueError("scales and warm_starts need one entry per operator")
    scales = [float(s) for s in scales]
    schedules = [default_s_schedule(s, smax_factor) for s in scales]
    phases = np.exp(1j * directions(m))
    tuples = [(r.a, r.b) for r in rs]

    # Full multistart at the smallest shift, one grouped sweep.
    first = np.array([sched[0] for sched in schedules])
    reports = _sweep(
        n, len(rs), m, cfg, _STREAM_BANACH,
        lambda g, off: ShiftedNormObjective(tuples, -first[g // m] * phases[g % m], off),
        extra=warm_starts,
    )

    g_per_dir = [
        [[rep.value - sched[0]] for rep in reps]
        for reps, sched in zip(reports, schedules)
    ]
    active = [list(range(m)) for _ in rs]
    # Remaining shifts are warm continuations of the active directions of
    # every operator, one grouped ascent per shift; a direction freezes once
    # its g decrement falls under its operator's early stop.
    for t in range(1, len(schedules[0])):
        live = [i for i in range(len(rs)) if active[i]]
        if not live:
            break
        blocks = [[[reports[i][j].maximizer] for j in active[i]] for i in live]
        extra = None
        if warm_starts is not None:
            extra = [[warm_starts[i][j] for j in active[i]] for i in live]
        starts, groups, offsets = _stack_blocks(blocks, extra)
        dirs = np.concatenate([active[i] for i in live])
        shift = np.concatenate([np.full(len(active[i]), schedules[i][t]) for i in live])
        objective = ShiftedNormObjective(
            [tuples[i] for i in live], -shift[groups] * phases[dirs[groups]], offsets
        )
        cont = iter(maximize_grouped(objective, groups, starts, cfg, coarse_first=False))
        for i in live:
            still = []
            for j in active[i]:
                rep = next(cont)
                g = g_per_dir[i][j]
                g.append(rep.value - schedules[i][t])
                reports[i][j] = rep
                if abs(g[-2] - g[-1]) >= EARLY_STOP_REL * scales[i]:
                    still.append(j)
            active[i] = still

    return [
        RangeEstimate(
            region=region_from_supports(np.array([g[-1] for g in gs])),
            reports=reps,
            scale=scale,
            g_schedules=[np.array(g) for g in gs],
            s_schedule=sched,
        )
        for reps, gs, scale, sched in zip(reports, g_per_dir, scales, schedules)
    ]
