"""End-to-end numerical verification of the orbit formula and its consequences.

Each verification computes a measured discrepancy and compares it to an
explicit tolerance; the main-formula tolerance budgets the ray-limit
residual of the operator side.  No tolerance reads the restart spreads,
which are diagnostics only: the orbit side's spread compares the two
polished values with coarse ones.  Pass flags are pure functions of
(discrepancy, tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _batched
from .elemop import KTupleOperator, random_instance, russo_dye_norm
from .fov import field_of_values
from .linalg import haar_unitaries
from .orbit import DEFAULT_SMAX_FACTOR, default_s_schedule
from .orbit import RangeEstimate, _orbit_matrices, banach_region, check_smax_factor, orbit_region
from .region import cloud_supports, directions, hausdorff, minkowski_sum, negate
from .unitary_opt import OptConfig, OrbitSupportObjective, ShiftedNormObjective

# Direction count sized so a 20-instance main-formula batch at n=2, k=2
# completes within the acceptance runtime budget.
DEFAULT_DIRECTIONS = 64
DEFAULT_CFG = OptConfig()

INCLUSION_TOL = 1e-10
HERMITIAN_SAMPLES = 32
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


def _kept(est: RangeEstimate) -> RangeEstimate:
    """est as a report keeps it: its reports without their estimates
    (OptReport.estimate), which only an ascent started from them reads."""
    return replace(est, reports=[replace(rep, estimate=None) for rep in est.reports])


def _require_even(m: int) -> None:
    if m % 2 != 0:
        raise ValueError(f"need an even number of directions, got {m}")


def _named(r: KTupleOperator) -> str:
    return "an unlabelled operator" if r.label is None else f"instance '{r.label}'"


def _derivation_pair(r: KTupleOperator):
    """(A, B) of an operator that encodes x -> Ax - xB as a = (A, I),
    b = (I, -B) to 1e-12; ValueError, naming the operator, otherwise."""
    eye = np.eye(r.n)
    if (
        r.k != 2
        or float(np.abs(r.a[1] - eye).max()) > 1e-12
        or float(np.abs(r.b[0] - eye).max()) > 1e-12
    ):
        raise ValueError(
            f"{_named(r)} does not encode x -> Ax - xB (need k=2, a=(A, I), b=(I, -B))"
        )
    return r.a[0], -r.b[1]


def _require_projection(r: KTupleOperator) -> None:
    """Raise ValueError, naming the operator, unless it is x -> p x p with
    a = b = (p,) to 1e-12 and p = p* = p^2 to 1e-10."""
    p = r.a[0]
    if r.k != 1 or float(np.abs(p - r.b[0]).max()) > 1e-12:
        raise ValueError(f"{_named(r)} does not encode x -> p x p (need k=1, a=b=(p,))")
    if (
        float(np.abs(p - p.conj().T).max()) > 1e-10
        or float(np.abs(p @ p - p).max()) > 1e-10
    ):
        raise ValueError(f"{_named(r)} is not an orthogonal projection (p = p* = p^2)")


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
) -> VerificationReport:
    """Exact per-unitary directional inequality, checked on random unitaries.

    For every sampled u, grid direction theta, and shift s of
    default_s_schedule at a norm bound, the matrix inequality
    lambda_max(Herm(e^{-i theta} sum u*a_i u b_i)) <= |R(u) + s e^{i theta} u| - s
    holds exactly; the discrepancy is the worst violation observed,
    independent of any optimization, against INCLUSION_TOL.  Both sides
    are evaluated by the objectives the two regions' ascents maximize:
    the left by OrbitSupportObjective at theta, the right by
    ShiftedNormObjective at z = -s e^{i theta}.
    """
    for name, value in (("n_samples", n_samples), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    cfg = cfg or DEFAULT_CFG
    us = haar_unitaries(r.n, n_samples, np.random.default_rng([cfg.seed, 31]))
    srough = 1.0 + float(np.sum(_batched.sigma_max(r.a) * _batched.sigma_max(r.b)))
    svals = default_s_schedule(srough)
    th = directions(m)
    tuples = [(r.a, r.b)]

    # One row per (sample, direction), and per (sample, direction, shift).
    orbit = OrbitSupportObjective(tuples, np.tile(th, n_samples))
    lhs = orbit.value(np.repeat(us, m, axis=0)).reshape(n_samples, m, 1)
    shifts = -svals[None, :] * np.exp(1j * th)[:, None]
    shifted = ShiftedNormObjective(tuples, np.tile(shifts.ravel(), n_samples))
    rhs = shifted.value(np.repeat(us, shifts.size, axis=0)).reshape(n_samples, m, -1) - svals

    violation = float(np.max(lhs - rhs))
    rep = VerificationReport(label=r.label or "inclusion")
    rep.checks.append(CheckResult("per_unitary_inclusion", violation, INCLUSION_TOL))
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
    smax_factor: float = DEFAULT_SMAX_FACTOR,
    tol: float | None = None,
) -> list[VerificationReport]:
    """Compute both sides of the orbit formula for each operator and compare them.

    Checks: the Hausdorff gap between the two regions (tolerance budgets
    the ray residual), monotonicity of every ray schedule, and that the
    hull of the witness cloud, the boundary points at the orbit side's
    per-direction maximizers, fills the orbit region.  The operators act
    on one M_n and run as one batch per phase; each report is the one its
    operator gets alone.
    """
    check_smax_factor(smax_factor)
    cfg = cfg or DEFAULT_CFG
    norms = russo_dye_norm(rs, cfg)
    scales = [nrm.value + 1.0 for nrm in norms]
    rhs = orbit_region(rs, m, cfg)
    lhs = banach_region(
        rs, m, cfg, scales=scales, smax_factor=smax_factor,
        warm_starts=[est.reports for est in rhs],
    )
    return [
        _main_report(*parts, m, tol) for parts in zip(rs, norms, scales, lhs, rhs)
    ]


def _main_report(r, nrm, scale, lhs, rhs, m, tol) -> VerificationReport:
    """verify_main's report on one operator.  orbit_hull_filling reads the
    witness cloud's supports, which its hull has exactly; no polygon is built."""
    disc = hausdorff(lhs.region, rhs.region)
    residual = lhs.max_residual
    tolerance = tol if tol is not None else max(MAIN_TOL_REL * scale, 2.0 * residual)

    mono = max(0.0, float(np.max(np.diff(lhs.g_schedules))))

    hull_gap = float(np.max(np.abs(cloud_supports(rhs.samples, m) - rhs.region.support)))

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
    rep.artifacts = {"lhs": _kept(lhs), "rhs": _kept(rhs)}
    return rep


def verify_derivation(
    rs: list[KTupleOperator],
    m: int = DEFAULT_DIRECTIONS,
    cfg: OptConfig | None = None,
    tol_rel: float = DERIVATION_TOL_REL,
) -> list[VerificationReport]:
    """Orbit region of each derivation x -> Ax - xB against the difference
    of fields of values W(A) + (-W(B)).

    Each operator must encode its derivation as a = (A, I), b = (I, -B)
    (KTupleOperator.derivation); all are checked before any optimization.
    The oracle region is computed by eigenvalue sweeps and Minkowski
    arithmetic only, independent of any unitary optimization.  Negating
    W(B) rotates the grid by half a turn, so m must be even.  The operators
    act on one M_n and their orbit sweeps run as one batch; each report is
    the one its operator gets alone.
    """
    _require_even(m)
    pairs = [_derivation_pair(r) for r in rs]
    cfg = cfg or DEFAULT_CFG
    reports = []
    for r, (a, b), est in zip(rs, pairs, orbit_region(rs, m, cfg)):
        oracle = minkowski_sum(field_of_values(a, m), negate(field_of_values(b, m)))
        disc = hausdorff(est.region, oracle)
        diam = max(oracle.diameter(), 1e-12)
        rep = VerificationReport(label=r.label or "derivation")
        rep.checks.append(CheckResult("derivation_difference", disc, tol_rel * diam))
        rep.diagnostics = {"oracle_diameter": diam, **_rollup({"rhs": est})}
        rep.artifacts = {"rhs": _kept(est), "oracle": oracle}
        reports.append(rep)
    return reports


def verify_mult_projection(
    rs: list[KTupleOperator],
    m: int = DEFAULT_DIRECTIONS,
    cfg: OptConfig | None = None,
    smax_factor: float = DEFAULT_SMAX_FACTOR,
    tol: float | None = None,
) -> list[VerificationReport]:
    """Both regions of each two-sided multiplication x -> p x p by an
    orthogonal projection p.

    Each operator must be KTupleOperator.multiplication(p, p) with p an
    orthogonal projection; all are checked before any optimization.
    Reports the region gap plus the support values at angles 0 and pi (pi
    is a grid direction only for even m) and the hermitian_check
    diagnostics of the orbit region.  The operators act on one M_n and run
    as one verify_main batch; smax_factor and tol are those of verify_main.
    """
    _require_even(m)
    for r in rs:
        _require_projection(r)
    cfg = cfg or DEFAULT_CFG
    reports = verify_main(rs, m=m, cfg=cfg, smax_factor=smax_factor, tol=tol)
    for r, rep in zip(rs, reports):
        rhs = rep.artifacts["rhs"]
        herm = _hermitian_report(r, rhs, cfg)
        rhs_h = rhs.region.support
        lhs_h = rep.artifacts["lhs"].region.support
        rep.diagnostics.update(
            {
                "support_rhs_0": float(rhs_h[0]),
                "support_rhs_pi": float(rhs_h[m // 2]),
                "support_lhs_0": float(lhs_h[0]),
                "support_lhs_pi": float(lhs_h[m // 2]),
                "hermitian": herm.passed,
                "imaginary_extent": herm.diagnostics["imaginary_extent"],
                "sampled_asymmetry": herm.diagnostics["sampled_asymmetry"],
            }
        )
    return reports


def hermitian_check(
    rs: list[KTupleOperator],
    m: int = DEFAULT_DIRECTIONS,
    cfg: OptConfig | None = None,
) -> list[VerificationReport]:
    """Classify each R as hermitian (real numerical range) or not.

    The discrepancy is the imaginary extent of the computed orbit region,
    against HERMITIAN_TOL_REL times its scale; the report also carries the
    sampled asymmetry criterion max_u |T(u) - T(u)*| over HERMITIAN_SAMPLES
    Haar unitaries, with T(u) = sum u*a_i u b_i.  The operators act on one
    M_n and their orbit sweeps run as one batch; each report is the one its
    operator gets alone.
    """
    cfg = cfg or DEFAULT_CFG
    return [_hermitian_report(r, est, cfg) for r, est in zip(rs, orbit_region(rs, m, cfg))]


def _hermitian_report(r, est, cfg) -> VerificationReport:
    extent = float(np.max(np.abs(est.region.vertices[:, 1])))
    tolerance = HERMITIAN_TOL_REL * est.scale

    us = haar_unitaries(r.n, HERMITIAN_SAMPLES, np.random.default_rng([cfg.seed, 37]))
    t = _orbit_matrices(r, us)
    asym = float(np.max(_batched.sigma_max(t - np.conj(np.swapaxes(t, -1, -2)))))

    rep = VerificationReport(label=r.label or "hermitian-check")
    rep.checks.append(CheckResult("real_range", extent, tolerance))
    rep.diagnostics = {
        "imaginary_extent": extent,
        "sampled_asymmetry": asym,
        **_rollup({"rhs": est}),
    }
    rep.artifacts = {"rhs": _kept(est)}
    return rep
