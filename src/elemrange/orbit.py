"""Both sides of the orbit formula for the numerical range of R_{a,b}.

The orbit side samples the union of fields of values W(sum_i u*a_i u b_i)
over unitaries u: for each grid direction the support is maximized over
U(n).  The operator side evaluates the support of the numerical range of
R as an element of B(M_n) through the ray limit

    h(theta) = inf_{s>0} ( |R + s e^{i theta} Id| - s ),

whose finite-s evaluations g(s) decrease monotonically to h(theta); the
last decrement of the schedule is reported as the residual bias bound.

Region sweeps run every direction's multistart as one grouped batch; a
second grouped pass then re-ascends each direction from its neighbor's
maximizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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

# Fixed stream tags so every derived random stream is a pure function of
# the configured seed.
_STREAM_ORBIT = 11
_STREAM_BANACH = 13
_STREAM_CLOUD = 17


@dataclass
class RangeEstimate:
    """A computed region plus the diagnostics that qualify it.

    residuals and g_schedules are present for the operator (ray-limit)
    side; samples is the witness point cloud of the orbit side.
    """

    region: SupportRegion
    reports: list
    scale: float
    residuals: np.ndarray | None = None
    g_schedules: list | None = None
    s_schedule: np.ndarray | None = None
    samples: np.ndarray | None = None
    maximizers: list = field(default_factory=list)

    @property
    def restart_spreads(self) -> np.ndarray:
        return np.array([r.spread for r in self.reports])

    @property
    def max_residual(self) -> float:
        if self.residuals is None or len(self.residuals) == 0:
            return 0.0
        return float(np.max(np.maximum(self.residuals, 0.0)))


def default_s_schedule(scale: float, smax_factor: float = 64.0) -> np.ndarray:
    """Doubling shift magnitudes 8*scale, 16*scale, ... up to smax_factor*scale."""
    if smax_factor < 16:
        raise ValueError("smax_factor must be >= 16")
    factors = [8.0]
    while factors[-1] * 2 <= smax_factor:
        factors.append(factors[-1] * 2)
    if factors[-1] != smax_factor:
        factors.append(float(smax_factor))
    return float(scale) * np.array(factors)


def _orbit_matrices(r: KTupleOperator, us: np.ndarray) -> np.ndarray:
    """sum_i u* a_i u b_i for a stack of unitaries."""
    return np.conj(np.swapaxes(us, -1, -2)) @ apply_batched(r, us)


def orbit_witnesses(r: KTupleOperator, us: np.ndarray, n_angles: int = WITNESS_ANGLES):
    """Boundary witness points of W(sum u*a_i u b_i) for each unitary."""
    c = _orbit_matrices(r, us)
    th = directions(n_angles)
    ph = np.exp(-1j * th)[None, :, None, None]
    rc = ph * c[:, None]
    h = (rc + np.conj(np.swapaxes(rc, -1, -2))) / 2.0
    flat = h.reshape(-1, r.n, r.n)
    _, v = _batched.top_eigh(flat)
    cexp = np.repeat(c, n_angles, axis=0)
    return np.einsum("bi,bij,bj->b", np.conj(v), cexp, v)


def _witnesses_at_own_angle(r: KTupleOperator, us: np.ndarray, thetas: np.ndarray):
    """Witness of each unitary's field of values at its own direction theta_j.

    These points realize the optimized support values exactly, so the
    witness cloud's hull touches the orbit region in every grid direction.
    """
    c = _orbit_matrices(r, us)
    ph = np.exp(-1j * thetas)[:, None, None]
    rc = ph * c
    h = (rc + np.conj(np.swapaxes(rc, -1, -2))) / 2.0
    _, v = _batched.top_eigh(h)
    return np.einsum("bi,bij,bj->b", np.conj(v), c, v)


def _sweep_starts(n: int, m: int, cfg: OptConfig, stream: int, per_dir_extra=None):
    """Fresh multistart points for every direction, plus optional warm extras."""
    children = np.random.SeedSequence([cfg.seed, stream]).spawn(m)
    starts = []
    groups = []
    for j in range(m):
        rng = np.random.default_rng(children[j])
        block = default_starts(n, cfg.restarts, rng)
        if per_dir_extra is not None:
            block.append(np.asarray(per_dir_extra[j], dtype=complex))
        starts.extend(block)
        groups.extend([j] * len(block))
    return np.stack(starts), np.asarray(groups)


# Iteration budget of the chained polish pass; partial ascents remain valid
# lower bounds and the incumbents are already at full precision.
_CHAIN_BUDGET = 30


def _chain_polish(reports, make_objective, cfg: OptConfig, per_dir_extra=None):
    """Grouped warm-continuation pass implementing direction chaining.

    Every direction re-ascends from its own maximizer, its predecessor's,
    and any extra warm point, all in one batch; results merge in by max.
    """
    m = len(reports)
    starts = []
    groups = []
    for j in range(m):
        block = [reports[j].maximizer]
        if j > 0:
            block.append(reports[j - 1].maximizer)
        if per_dir_extra is not None:
            block.append(np.asarray(per_dir_extra[j], dtype=complex))
        starts.extend(block)
        groups.extend([j] * len(block))
    groups = np.asarray(groups)
    capped = replace(cfg, max_iterations=min(_CHAIN_BUDGET, cfg.max_iterations))
    polished = maximize_grouped(
        make_objective(groups), groups, np.stack(starts), capped, coarse_first=False
    )
    return [merge_reports(reports[j], polished[j]) for j in range(m)]


def orbit_region(
    r: KTupleOperator,
    m: int = 64,
    cfg: OptConfig | None = None,
    n_haar: int = 64,
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

    starts, groups = _sweep_starts(r.n, m, cfg, _STREAM_ORBIT)
    objective = OrbitSupportObjective(r.a, r.b, thetas[groups])
    reports = maximize_grouped(objective, groups, starts, cfg)
    reports = _chain_polish(
        reports, lambda g: OrbitSupportObjective(r.a, r.b, thetas[g]), cfg
    )

    maximizers = [rep.maximizer for rep in reports]
    h_opt = np.array([rep.value for rep in reports])

    cloud_rng = np.random.default_rng([cfg.seed, _STREAM_CLOUD])
    us = np.concatenate([haar_unitaries(r.n, n_haar, cloud_rng), np.stack(maximizers)])
    witnesses = orbit_witnesses(r, us)
    own = _witnesses_at_own_angle(r, np.stack(maximizers), thetas)
    witnesses = np.concatenate([witnesses, own])

    h = np.maximum(h_opt, cloud_supports(witnesses, m))
    region = region_from_supports(h)
    scale = max(1.0, float(np.max(np.abs(h))))
    return RangeEstimate(
        region=region,
        reports=reports,
        scale=scale,
        samples=witnesses,
        maximizers=maximizers,
    )


def banach_region(
    r: KTupleOperator,
    m: int = 64,
    cfg: OptConfig | None = None,
    s_schedule=None,
    warm_starts=None,
) -> RangeEstimate:
    """Operator-side region from per-direction ray-limit evaluations.

    warm_starts, when given, is one unitary per direction (for example the
    orbit side's maximizers) added to every schedule optimization of that
    direction.  This is an outer approximation of the operator's numerical
    range whenever the per-direction norm optimizations reach their
    suprema; undershoot is reported through residuals and restart spreads.
    """
    if m < 8:
        raise ValueError("banach_region needs at least 8 directions")
    cfg = cfg or OptConfig()
    if s_schedule is None:
        scale = russo_dye_norm(r, cfg).value + 1.0
        s_schedule = default_s_schedule(scale)
    s_schedule = np.asarray(s_schedule, dtype=float)
    if s_schedule.ndim != 1 or s_schedule.size < 1:
        raise ValueError("s_schedule must be a nonempty 1-d array")
    if np.any(np.diff(s_schedule) <= 0) or np.any(s_schedule <= 0):
        raise ValueError("s_schedule must be strictly increasing and positive")
    scale = float(s_schedule[0]) / 8.0
    early_stop = EARLY_STOP_REL * scale
    thetas = directions(m)
    phases = np.exp(1j * thetas)

    # Full multistart at the smallest shift, one grouped sweep.
    starts, groups = _sweep_starts(r.n, m, cfg, _STREAM_BANACH, warm_starts)
    objective = ShiftedNormObjective(r.a, r.b, -s_schedule[0] * phases[groups])
    reports = maximize_grouped(objective, groups, starts, cfg)
    reports = _chain_polish(
        reports,
        lambda g: ShiftedNormObjective(r.a, r.b, -s_schedule[0] * phases[g]),
        cfg,
        per_dir_extra=warm_starts,
    )

    g_per_dir = [[rep.value - s_schedule[0]] for rep in reports]
    final_reports = list(reports)
    residuals = np.zeros(m)
    active = list(range(m))
    # Remaining shifts are warm continuations of the active directions;
    # a direction freezes once its g decrement falls under the early-stop.
    for s in s_schedule[1:]:
        starts = []
        groups = []
        dir_of_group = list(active)
        for gi, j in enumerate(active):
            starts.append(final_reports[j].maximizer)
            groups.append(gi)
            if warm_starts is not None:
                starts.append(np.asarray(warm_starts[j], dtype=complex))
                groups.append(gi)
        groups = np.asarray(groups)
        objective = ShiftedNormObjective(
            r.a, r.b, -s * phases[np.asarray(dir_of_group)[groups]]
        )
        cont = maximize_grouped(
            objective, groups, np.stack(starts), cfg, coarse_first=False
        )
        still = []
        for gi, j in enumerate(dir_of_group):
            g_new = cont[gi].value - s
            residuals[j] = g_per_dir[j][-1] - g_new
            g_per_dir[j].append(g_new)
            final_reports[j] = cont[gi]
            if abs(residuals[j]) >= early_stop:
                still.append(j)
        active = still
        if not active:
            break

    h = np.array([g[-1] for g in g_per_dir])
    g_schedules = [np.array(g) for g in g_per_dir]

    region = region_from_supports(h)
    return RangeEstimate(
        region=region,
        reports=final_reports,
        scale=scale,
        residuals=residuals,
        g_schedules=g_schedules,
        s_schedule=s_schedule.copy(),
        maximizers=[rep.maximizer for rep in final_reports],
    )
