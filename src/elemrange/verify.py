"""End-to-end numerical verification of the orbit formula and its consequences.

Each verification computes a measured discrepancy and compares it to an
explicit tolerance that budgets the known bias sources: the ray-limit
residual of the operator side and the restart spread of the nonconvex
optimizations.  Pass flags are pure functions of (discrepancy, tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _batched
from .elemop import (
    KTupleOperator,
    apply_batched,
    random_instance,
    russo_dye_norm,
)
from .fov import field_of_values
from .linalg import haar_unitaries, spectral_norm
from .orbit import DEFAULT_HAAR_SAMPLES, DEFAULT_SMAX_FACTOR, RangeEstimate
from .orbit import banach_region, check_smax_factor, orbit_region
from .region import directions, hausdorff, hull_of_points, minkowski_sum, negate
from .unitary_opt import OptConfig

# Direction count sized so a 20-instance main-formula batch at n=2, k=2
# completes within the acceptance runtime budget.
DEFAULT_DIRECTIONS = 64
DEFAULT_CFG = OptConfig()

INCLUSION_TOL = 1e-10
MAIN_TOL_REL = 2e-2
DERIVATION_TOL_REL = 1e-2
MONOTONE_TOL_REL = 1e-6
HERMITIAN_TOL_REL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    """One named discrepancy-versus-tolerance comparison."""

    name: str
    discrepancy: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.discrepancy <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "discrepancy": self.discrepancy,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    """Named checks for one instance plus optimizer diagnostics."""

    label: str
    checks: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)  # not serialized

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "diagnostics": self.diagnostics,
        }


def _rollup(estimates: dict) -> dict:
    out = {}
    for side, est in estimates.items():
        if est is None:
            continue
        reports = est.reports
        out[f"{side}_restart_spread_max"] = float(np.max(est.restart_spreads))
        out[f"{side}_converged_fraction"] = float(
            np.mean([r.converged for r in reports])
        )
        out[f"{side}_iterations_max"] = int(max(r.iterations for r in reports))
    return out


def _require_even(m: int) -> None:
    if m % 2 != 0:
        raise ValueError(f"need an even number of directions, got {m}")


def random_batch(count: int, n: int, k: int, seed: int) -> list[KTupleOperator]:
    """Seeded random instances with unit-scale entries, one child stream each."""
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, 97, i])
        inst = random_instance(n, k, rng, label=f"rand-n{n}k{k}-{i:02d}")
        out.append(inst)
    return out


def verify_inclusion(
    r: KTupleOperator,
    n_samples: int = 50,
    cfg: OptConfig | None = None,
    m: int = 24,
    s_factors=(8.0, 16.0, 32.0, 64.0),
    tol: float = INCLUSION_TOL,
) -> VerificationReport:
    """Exact per-unitary directional inequality, checked on random unitaries.

    For every sampled u, grid direction theta, and shift s the matrix
    inequality lambda_max(Herm(e^{-i theta} sum u*a_i u b_i)) <=
    |R(u) + s e^{i theta} u| - s holds exactly; the discrepancy is the
    worst violation observed, independent of any optimization.
    """
    cfg = cfg or DEFAULT_CFG
    us = haar_unitaries(r.n, n_samples, np.random.default_rng([cfg.seed, 31]))
    ru = apply_batched(r, us)
    cu = _batched.mm(np.conj(np.swapaxes(us, -1, -2)), ru)

    srough = 1.0 + sum(
        spectral_norm(r.a[i]) * spectral_norm(r.b[i]) for i in range(r.k)
    )
    svals = srough * np.asarray(s_factors, dtype=float)
    th = directions(m)
    ph = np.exp(-1j * th)

    rc = ph[None, :, None, None] * cu[:, None]
    lhs = _batched.eigvals_max((rc + np.conj(np.swapaxes(rc, -1, -2))) / 2.0)

    shift = svals[None, None, :, None, None] * np.conj(ph)[None, :, None, None, None]
    g = ru[:, None, None] + shift * us[:, None, None]
    rhs = _batched.sigma_max(g) - svals[None, None, :]

    violation = float(np.max(lhs[:, :, None] - rhs))
    rep = VerificationReport(label=r.label or "inclusion")
    rep.checks.append(CheckResult("per_unitary_inclusion", violation, tol))
    rep.diagnostics = {
        "n_samples": n_samples,
        "directions": m,
        "shift_scale": srough,
    }
    return rep


def verify_main(
    rs: list[KTupleOperator],
    m: int = DEFAULT_DIRECTIONS,
    cfg: OptConfig | None = None,
    n_haar: int = DEFAULT_HAAR_SAMPLES,
    smax_factor: float = DEFAULT_SMAX_FACTOR,
    tol: float | None = None,
) -> list[VerificationReport]:
    """Compute both sides of the orbit formula for each operator and compare them.

    Checks: the Hausdorff gap between the two regions (tolerance budgets
    the ray residual), monotonicity of every ray schedule, and that the
    witness cloud's hull fills the orbit region.  The operators act on one
    M_n and run as one batch per phase; each report is the one its
    operator gets alone.
    """
    check_smax_factor(smax_factor)
    cfg = cfg or DEFAULT_CFG
    norms = russo_dye_norm(rs, cfg)
    scales = [nrm.value + 1.0 for nrm in norms]
    rhs = orbit_region(rs, m, cfg, n_haar=n_haar)
    lhs = banach_region(
        rs, m, cfg, scales=scales, smax_factor=smax_factor,
        warm_starts=[est.maximizers for est in rhs],
    )
    return [
        _main_report(*parts, m, tol) for parts in zip(rs, norms, scales, lhs, rhs)
    ]


def _main_report(r, nrm, scale, lhs, rhs, m, tol) -> VerificationReport:
    disc = hausdorff(lhs.region, rhs.region)
    residual = lhs.max_residual
    tolerance = tol if tol is not None else max(MAIN_TOL_REL * scale, 2.0 * residual)

    mono = 0.0
    for g in lhs.g_schedules:
        if len(g) >= 2:
            mono = max(mono, float(np.max(np.diff(g))))

    hull = hull_of_points(rhs.samples, m)
    hull_gap = hausdorff(hull, rhs.region)

    rep = VerificationReport(label=r.label or "main")
    rep.checks.append(CheckResult("main_formula", disc, tolerance))
    rep.checks.append(CheckResult("ray_monotone", mono, MONOTONE_TOL_REL * scale))
    rep.checks.append(CheckResult("orbit_hull_filling", hull_gap, MAIN_TOL_REL * scale))
    rep.diagnostics = {
        "scale": scale,
        "operator_norm": nrm.value,
        "ray_residual_max": residual,
        **_rollup({"lhs": lhs, "rhs": rhs}),
    }
    rep.artifacts = {"lhs": lhs, "rhs": rhs}
    return rep


def verify_derivation(
    pairs,
    m: int = DEFAULT_DIRECTIONS,
    cfg: OptConfig | None = None,
    tol_rel: float = DERIVATION_TOL_REL,
    labels=None,
    n_haar: int = DEFAULT_HAAR_SAMPLES,
) -> list[VerificationReport]:
    """Orbit region of x -> a x - x b against the difference of fields of
    values, for each (a, b) in pairs.

    The oracle region W(a) + (-W(b)) is computed by eigenvalue sweeps and
    Minkowski arithmetic only, independent of any unitary optimization.
    Negating W(b) rotates the grid by half a turn, so m must be even.
    labels, when given, names each pair.  The pairs share one n and their
    orbit sweeps run as one batch; each report is the one its pair gets
    alone.
    """
    _require_even(m)
    cfg = cfg or DEFAULT_CFG
    labels = labels if labels is not None else [None] * len(pairs)
    deltas = [
        KTupleOperator.derivation(a, b, label=label)
        for (a, b), label in zip(pairs, labels)
    ]
    estimates = orbit_region(deltas, m, cfg, n_haar=n_haar)
    reports = []
    for (a, b), label, est in zip(pairs, labels, estimates):
        oracle = minkowski_sum(field_of_values(a, m), negate(field_of_values(b, m)))
        disc = hausdorff(est.region, oracle)
        diam = max(oracle.diameter(), 1e-12)
        rep = VerificationReport(label=label or "derivation")
        rep.checks.append(CheckResult("derivation_difference", disc, tol_rel * diam))
        rep.diagnostics = {"oracle_diameter": diam, **_rollup({"rhs": est})}
        rep.artifacts = {"rhs": est, "oracle": oracle}
        reports.append(rep)
    return reports


def verify_mult_projection(
    p,
    m: int = DEFAULT_DIRECTIONS,
    cfg: OptConfig | None = None,
    n_haar: int = DEFAULT_HAAR_SAMPLES,
    smax_factor: float = DEFAULT_SMAX_FACTOR,
    tol: float | None = None,
) -> VerificationReport:
    """Both regions of the two-sided multiplication by an orthogonal projection.

    Rejects inputs that are not orthogonal projections; reports the region
    gap plus the support values at angles 0 and pi; pi is a grid direction
    only for even m.  n_haar, smax_factor and tol are those of verify_main.
    """
    _require_even(m)
    p = np.asarray(p, dtype=complex)
    if (
        float(np.abs(p - p.conj().T).max()) > 1e-10
        or float(np.abs(p @ p - p).max()) > 1e-10
    ):
        raise ValueError("input is not an orthogonal projection (p = p* = p^2)")
    cfg = cfg or DEFAULT_CFG
    r = KTupleOperator.multiplication(p, p, label="projection-mult")
    rep = verify_main(
        [r], m=m, cfg=cfg, n_haar=n_haar, smax_factor=smax_factor, tol=tol
    )[0]
    rep.label = "projection-mult"
    rhs_h = rep.artifacts["rhs"].region.support
    lhs_h = rep.artifacts["lhs"].region.support
    rep.diagnostics.update(
        {
            "support_rhs_0": float(rhs_h[0]),
            "support_rhs_pi": float(rhs_h[m // 2]),
            "support_lhs_0": float(lhs_h[0]),
            "support_lhs_pi": float(lhs_h[m // 2]),
        }
    )
    return rep


def hermitian_check(
    r: KTupleOperator,
    m: int = DEFAULT_DIRECTIONS,
    cfg: OptConfig | None = None,
    tol: float | None = None,
    n_samples: int = 32,
    orbit: RangeEstimate | None = None,
) -> VerificationReport:
    """Classify R as hermitian (real numerical range) or not.

    The discrepancy is the imaginary extent of the computed orbit region;
    the report also carries the sampled asymmetry criterion
    max_u |T(u) - T(u)*| over Haar unitaries, with T(u) = sum u*a_i u b_i.
    orbit, when given, is an ``orbit_region(r, m, cfg)`` estimate already
    computed, which is then used instead of a second sweep.
    """
    cfg = cfg or DEFAULT_CFG
    est = orbit if orbit is not None else orbit_region([r], m, cfg)[0]
    extent = float(np.max(np.abs(est.region.vertices[:, 1])))
    tolerance = tol if tol is not None else HERMITIAN_TOL_REL * est.scale

    us = haar_unitaries(r.n, n_samples, np.random.default_rng([cfg.seed, 37]))
    t = _batched.mm(np.conj(np.swapaxes(us, -1, -2)), apply_batched(r, us))
    asym = float(np.max(_batched.sigma_max(t - np.conj(np.swapaxes(t, -1, -2)))))

    rep = VerificationReport(label=r.label or "hermitian-check")
    rep.checks.append(CheckResult("real_range", extent, tolerance))
    rep.diagnostics = {
        "imaginary_extent": extent,
        "sampled_asymmetry": asym,
        **_rollup({"rhs": est}),
    }
    rep.artifacts = {"rhs": est}
    return rep
