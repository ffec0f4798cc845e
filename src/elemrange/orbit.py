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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _batched
from .elemop import KTupleOperator, apply_batched, russo_dye_norm
from .linalg import haar_unitaries
from .region import SupportRegion, cloud_supports, directions, region_from_supports
from .unitary_opt import (
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


def default_s_schedule(
    scale: float, smax_factor: float = DEFAULT_SMAX_FACTOR
) -> np.ndarray:
    """Doubling shift magnitudes 8*scale, 16*scale, ... up to smax_factor*scale."""
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    if not (np.isfinite(smax_factor) and smax_factor >= 16):
        raise ValueError(f"smax_factor must be finite and >= 16, got {smax_factor}")
    factors = [8.0]
    while factors[-1] * 2 <= smax_factor:
        factors.append(factors[-1] * 2)
    if factors[-1] != smax_factor:
        factors.append(float(smax_factor))
    return float(scale) * np.array(factors)


def _orbit_matrices(r: KTupleOperator, us: np.ndarray) -> np.ndarray:
    """sum_i u* a_i u b_i for a stack of unitaries."""
    return np.conj(np.swapaxes(us, -1, -2)) @ apply_batched(r, us)


def _fov_witnesses(c: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Boundary point of W(c_b) in direction theta_b, one per (c_b, theta_b) row."""
    rc = np.exp(-1j * thetas)[:, None, None] * c
    h = (rc + np.conj(np.swapaxes(rc, -1, -2))) / 2.0
    _, v = _batched.top_eigh(h)
    return np.einsum("bi,bij,bj->b", np.conj(v), c, v)


def orbit_witnesses(r: KTupleOperator, us: np.ndarray, n_angles: int = WITNESS_ANGLES):
    """Boundary witness points of W(sum u*a_i u b_i) for each unitary."""
    c = _orbit_matrices(r, us)
    th = directions(n_angles)
    return _fov_witnesses(np.repeat(c, n_angles, axis=0), np.tile(th, len(c)))


def _witnesses_at_own_angle(r: KTupleOperator, us: np.ndarray, thetas: np.ndarray):
    """Witness of each unitary's field of values at its own direction theta_j.

    These points realize the optimized support values exactly, so the
    witness cloud's hull touches the orbit region in every grid direction.
    """
    return _fov_witnesses(_orbit_matrices(r, us), thetas)


def _stack_blocks(blocks, per_dir_extra=None):
    """Stacked (starts, groups); block j, plus per_dir_extra[j], is group j."""
    starts = []
    groups = []
    for j, block in enumerate(blocks):
        if per_dir_extra is not None:
            block = [*block, np.asarray(per_dir_extra[j], dtype=complex)]
        starts.extend(block)
        groups.extend([j] * len(block))
    return np.stack(starts), np.asarray(groups)


def _sweep_starts(n: int, m: int, cfg: OptConfig, stream: int, per_dir_extra=None):
    """Fresh multistart points for every direction, plus optional warm extras."""
    children = np.random.SeedSequence([cfg.seed, stream]).spawn(m)
    blocks = [default_starts(n, cfg.restarts, np.random.default_rng(c)) for c in children]
    return _stack_blocks(blocks, per_dir_extra)


# Iteration budget of the chained polish pass; partial ascents remain valid
# lower bounds and the incumbents are already at full precision.
_CHAIN_BUDGET = 30


def _chain_polish(reports, make_objective, cfg: OptConfig, per_dir_extra=None):
    """Grouped warm-continuation pass implementing direction chaining.

    Every direction re-ascends from its own maximizer, its predecessor's,
    and any extra warm point, all in one batch; results merge in by max.
    """
    blocks = [[rep.maximizer] for rep in reports]
    for block, prev in zip(blocks[1:], reports):
        block.append(prev.maximizer)
    starts, groups = _stack_blocks(blocks, per_dir_extra)
    capped = replace(cfg, max_iterations=min(_CHAIN_BUDGET, cfg.max_iterations))
    polished = maximize_grouped(
        make_objective(groups), groups, starts, capped, coarse_first=False
    )
    return [merge_reports(rep, pol) for rep, pol in zip(reports, polished)]


def _sweep(
    n: int, m: int, cfg: OptConfig, stream: int, make_objective, per_dir_extra=None
):
    """Multistart over all m directions, then the chained polish, both grouped.

    make_objective(groups) builds the objective for starts in those directions.
    """
    starts, groups = _sweep_starts(n, m, cfg, stream, per_dir_extra)
    reports = maximize_grouped(make_objective(groups), groups, starts, cfg)
    return _chain_polish(reports, make_objective, cfg, per_dir_extra)


def orbit_region(
    r: KTupleOperator,
    m: int = 64,
    cfg: OptConfig | None = None,
    n_haar: int = DEFAULT_HAAR_SAMPLES,
) -> RangeEstimate:
    """Orbit-side region: per-direction optimized supports plus witness cloud.

    The witness cloud collects boundary points of W(sum u*a_i u b_i) for
    n_haar Haar samples and for every per-direction maximizer.  Witness
    points are certified members of the orbit union, so the region support
    in each direction is the larger of the optimized value and the cloud's
    own support there.
    """
    if m < 8:
        raise ValueError("orbit_region needs at least 8 directions")
    cfg = cfg or OptConfig()
    thetas = directions(m)

    reports = _sweep(
        r.n, m, cfg, _STREAM_ORBIT, lambda g: OrbitSupportObjective(r.a, r.b, thetas[g])
    )

    maximizers = np.stack([rep.maximizer for rep in reports])
    h_opt = np.array([rep.value for rep in reports])

    cloud_rng = np.random.default_rng([cfg.seed, _STREAM_CLOUD])
    us = np.concatenate([haar_unitaries(r.n, n_haar, cloud_rng), maximizers])
    witnesses = orbit_witnesses(r, us)
    own = _witnesses_at_own_angle(r, maximizers, thetas)
    witnesses = np.concatenate([witnesses, own])

    h = np.maximum(h_opt, cloud_supports(witnesses, m))
    region = region_from_supports(h)
    scale = max(1.0, float(np.max(np.abs(h))))
    return RangeEstimate(region=region, reports=reports, scale=scale, samples=witnesses)


def banach_region(
    r: KTupleOperator,
    m: int = 64,
    cfg: OptConfig | None = None,
    scale: float | None = None,
    smax_factor: float = DEFAULT_SMAX_FACTOR,
    warm_starts=None,
) -> RangeEstimate:
    """Operator-side region from per-direction ray-limit evaluations.

    The shifts are ``default_s_schedule(scale, smax_factor)``, with scale
    defaulting to ``russo_dye_norm(r, cfg).value + 1``; a direction stops
    early once its g decrement falls under EARLY_STOP_REL * scale.
    warm_starts, when given, is one unitary per direction (for example the
    orbit side's maximizers) added to every schedule optimization of that
    direction.  This is an outer approximation of the operator's numerical
    range whenever the per-direction norm optimizations reach their
    suprema; undershoot is reported through residuals and restart spreads.
    """
    if m < 8:
        raise ValueError("banach_region needs at least 8 directions")
    cfg = cfg or OptConfig()
    if scale is None:
        scale = russo_dye_norm(r, cfg).value + 1.0
    scale = float(scale)
    s_schedule = default_s_schedule(scale, smax_factor)
    early_stop = EARLY_STOP_REL * scale
    phases = np.exp(1j * directions(m))

    # Full multistart at the smallest shift, one grouped sweep.
    reports = _sweep(
        r.n, m, cfg, _STREAM_BANACH,
        lambda g: ShiftedNormObjective(r.a, r.b, -s_schedule[0] * phases[g]),
        per_dir_extra=warm_starts,
    )

    g_per_dir = [[rep.value - s_schedule[0]] for rep in reports]
    active = list(range(m))
    # Remaining shifts are warm continuations of the active directions;
    # a direction freezes once its g decrement falls under the early-stop.
    for s in s_schedule[1:]:
        extra = None if warm_starts is None else [warm_starts[j] for j in active]
        starts, groups = _stack_blocks([[reports[j].maximizer] for j in active], extra)
        objective = ShiftedNormObjective(r.a, r.b, -s * phases[np.take(active, groups)])
        cont = maximize_grouped(objective, groups, starts, cfg, coarse_first=False)
        still = []
        for j, rep in zip(active, cont):
            g = g_per_dir[j]
            g.append(rep.value - s)
            reports[j] = rep
            if abs(g[-2] - g[-1]) >= early_stop:
                still.append(j)
        active = still
        if not active:
            break

    h = np.array([g[-1] for g in g_per_dir])
    return RangeEstimate(
        region=region_from_supports(h),
        reports=reports,
        scale=scale,
        g_schedules=[np.array(g) for g in g_per_dir],
        s_schedule=s_schedule,
    )
