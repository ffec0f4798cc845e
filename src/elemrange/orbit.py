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
direction from its predecessor's maximizer on the circle.  The operator
side's schedule of shifts is decided here alone, from the operator's scale.

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
from .region import SupportRegion, cloud_supports, directions, region_from_supports
from .unitary_opt import (
    OptConfig,
    OrbitSupportObjective,
    ShiftedNormObjective,
    _maximize_blocks,
    default_starts,
    merge_reports,
)

EARLY_STOP_REL = 1e-4
DEFAULT_SMAX_FACTOR = 64.0

# Fixed stream tags so every derived random stream is a pure function of
# the configured seed.
_STREAM_ORBIT = 11
_STREAM_BANACH = 13


@dataclass
class RangeEstimate:
    """A computed region plus the diagnostics that qualify it.

    g_schedules and s_schedule are present for the operator (ray-limit)
    side; samples is the witness cloud of the orbit side, one boundary
    point of W(sum u*a_i u b_i) per direction, at that direction's
    maximizer u.
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


def _sweep_starts(n: int, m: int, cfg: OptConfig, stream: int) -> list:
    """Fresh multistart points for each of m directions, one block each.

    The points depend only on cfg.seed and the stream, so they are drawn
    once and shared by every instance.
    """
    children = np.random.SeedSequence([cfg.seed, stream]).spawn(m)
    return [default_starts(n, cfg.restarts, np.random.default_rng(c)) for c in children]


# Iteration budget of the chained polish pass; partial ascents remain valid
# lower bounds and the incumbents are already at full precision.
_CHAIN_BUDGET = 30


def _chain_polish(reports, objective_cls, rs, params, cfg: OptConfig):
    """Grouped warm-continuation pass implementing direction chaining.

    Direction j of every instance i, with parameter params[i][j],
    re-ascends from one start, the maximizer of direction j - 1 on the
    circle (direction 0 from direction m - 1), all in one batch; results
    merge in by max.  A direction's own maximizer and any warm point were
    already starts of the sweep, under the same objective, so they are not
    ascended again.
    """
    blocks = [
        [(p, [reps[j - 1].maximizer]) for j, p in enumerate(ps)]
        for reps, ps in zip(reports, params)
    ]
    capped = replace(cfg, max_iterations=min(_CHAIN_BUDGET, cfg.max_iterations))
    polished = _maximize_blocks(objective_cls, rs, blocks, capped, coarse_first=False)
    return [
        [merge_reports(rep, pol) for rep, pol in zip(reps, pols)]
        for reps, pols in zip(reports, polished)
    ]


def _sweep(objective_cls, rs, params, cfg: OptConfig, stream: int, warm):
    """Multistart over all m directions of every instance, then the chained
    polish, both as one grouped ascent; one report list per instance.

    params[i][j] is the objective's parameter of direction j of instance i,
    and warm[i][j] a tuple of extra starts of it.
    """
    shared = _sweep_starts(rs[0].n, len(params[0]), cfg, stream)
    blocks = [
        [(p, [*block, *extra]) for p, block, extra in zip(ps, shared, inst, strict=True)]
        for ps, inst in zip(params, warm)
    ]
    reports = _maximize_blocks(objective_cls, rs, blocks, cfg)
    return _chain_polish(reports, objective_cls, rs, params, cfg)


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
    and the cloud's own support there.  The operators act on one M_n;
    their sweeps run as one grouped ascent, and each estimate is the one
    its operator gets alone.
    """
    if m < 8:
        raise ValueError("orbit_region needs at least 8 directions")
    cfg = cfg or OptConfig()
    _batch_dim(rs)  # one M_n, or ValueError
    thetas = directions(m)
    reports = _sweep(
        OrbitSupportObjective, rs, [thetas] * len(rs), cfg, _STREAM_ORBIT,
        [[()] * m] * len(rs),
    )
    return [_orbit_estimate(r, reps, thetas) for r, reps in zip(rs, reports)]


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
    _batch_dim(rs)  # one M_n, or ValueError
    if scales is None:
        scales = [rep.value + 1.0 for rep in russo_dye_norm(rs, cfg)]
    if len(scales) != len(rs) or (
        warm_starts is not None and len(warm_starts) != len(rs)
    ):
        raise ValueError("scales and warm_starts need one entry per operator")
    scales = [float(s) for s in scales]
    schedules = [default_s_schedule(s, smax_factor) for s in scales]
    phases = np.exp(1j * directions(m))

    if warm_starts is None:
        warm = [[()] * m] * len(rs)
    else:
        warm = [[(u,) for u in ws] for ws in warm_starts]

    # Full multistart at the smallest shift, one grouped sweep.
    reports = _sweep(
        ShiftedNormObjective, rs, [-sched[0] * phases for sched in schedules], cfg,
        _STREAM_BANACH, warm,
    )

    g_per_dir = [
        [[rep.value - sched[0]] for rep in reps]
        for reps, sched in zip(reports, schedules)
    ]
    active = [list(range(m)) for _ in rs]
    # Remaining shifts are warm continuations of the active directions of
    # every operator, one grouped ascent per shift; a direction freezes once
    # its g decrement falls under its operator's early stop.  An operator
    # with no active direction left has no rows.
    for t in range(1, len(schedules[0])):
        if not any(active):
            break
        blocks = [
            [
                (z, [reports[i][j].maximizer, *warm[i][j]])
                for j, z in zip(act, -sched[t] * phases[act])
            ]
            for i, (act, sched) in enumerate(zip(active, schedules))
        ]
        cont = _maximize_blocks(ShiftedNormObjective, rs, blocks, cfg, coarse_first=False)
        for i, reps in enumerate(cont):
            still = []
            for j, rep in zip(active[i], reps):
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
