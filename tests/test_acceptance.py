"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
All tolerances are fixed here; nothing is calibrated at runtime.
"""

import contextlib
import io
import time

import numpy as np
import pytest

from elemrange import _batched
from elemrange.cli import main
from elemrange.elemop import KTupleOperator, random_instance, russo_dye_norm
from elemrange.fov import field_of_values
from elemrange.linalg import haar_unitary
from elemrange.orbit import orbit_region
from elemrange.region import cloud_supports, directions
from elemrange.unitary_opt import OrbitSupportObjective, ShiftedNormObjective
from elemrange.verify import (
    DEFAULT_CFG,
    DEFAULT_DIRECTIONS,
    hermitian_check,
    random_batch,
    verify_derivation,
    verify_main,
    verify_mult_projection,
)

from oracles import (
    apply_batched,
    directional_derivative,
    finite_difference_directional,
    matricize,
    projection_mult_support,
    rectangle_support,
    spectral_norm,
)


def record(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def main_batch():
    """Criterion 1's 20-instance batch at the default configuration.

    Shared with criteria 6 and 7, which inspect the same verification runs.
    """
    instances = random_batch(20, 2, 2, seed=0)
    t0 = time.perf_counter()
    reports = verify_main(instances)
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def test_criterion_01_main_formula(main_batch):
    reports, elapsed = main_batch
    worst = 0.0
    ok = True
    for rep in reports:
        disc = rep.check("main_formula").discrepancy
        tol = max(2e-2, 2.0 * rep.diagnostics["ray_residual_max"])
        worst = max(worst, disc / tol)
        ok &= disc <= tol
    ok &= elapsed <= 60.0
    record(
        1,
        "main formula on 20 random instances",
        ok,
        f"worst disc/tol {worst:.3f}, runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_02_derivation_oracle():
    worst = 0.0
    ok = True
    for i in range(10):
        n = 2 if i < 5 else 3
        rng = np.random.default_rng([202, i])
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        rep = verify_derivation([KTupleOperator.derivation(a, b)], tol_rel=1e-2)[0]
        chk = rep.check("derivation_difference")
        worst = max(worst, chk.discrepancy / chk.tolerance)
        ok &= chk.passed

    # Exact case: A = diag(0,1), B = diag(0,i) gives [0,1] x [-1,0].
    delta = KTupleOperator.derivation(np.diag([0.0, 1.0]), np.diag([0.0, 1.0j]))
    est = orbit_region([delta], DEFAULT_DIRECTIONS, DEFAULT_CFG)[0]
    expected = np.array([rectangle_support(t) for t in directions(DEFAULT_DIRECTIONS)])
    rect_err = float(np.abs(est.region.support - expected).max())
    ok &= rect_err <= 5e-3
    record(
        2,
        "derivation difference-of-ranges oracle",
        ok,
        f"worst disc/tol {worst:.3f}, rectangle support error {rect_err:.2e} <= 5e-3",
    )


def test_criterion_03_inclusion_inequality():
    rng = np.random.default_rng(303)
    worst = -np.inf
    for _ in range(20):
        r = random_instance(2, 2, rng)
        us = np.stack([haar_unitary(2, rng) for _ in range(50)])
        ru = apply_batched(r, us)
        cu = np.conj(np.swapaxes(us, -1, -2)) @ ru
        thetas = rng.uniform(0, 2 * np.pi, 50)
        svals = rng.uniform(0.5, 100.0, 50)
        ph = np.exp(-1j * thetas)
        rc = ph[:, None, None] * cu
        lhs = _batched.eigvals_max((rc + np.conj(np.swapaxes(rc, -1, -2))) / 2.0)
        g = ru + (svals * np.conj(ph))[:, None, None] * us
        rhs = _batched.sigma_max(g) - svals
        worst = max(worst, float(np.max(lhs - rhs)))
    ok = worst <= 1e-10
    record(3, "per-unitary inclusion inequality", ok, f"worst violation {worst:.2e} <= 1e-10")


def test_criterion_04_norm_reduction_to_unitaries():
    rng = np.random.default_rng(404)
    ok = True
    worst_excess = -np.inf
    for _ in range(20):
        r = random_instance(2, 2, rng)
        rep = russo_dye_norm([r], DEFAULT_CFG)[0]
        xs = rng.standard_normal((10_000, 2, 2)) + 1j * rng.standard_normal((10_000, 2, 2))
        xs /= _batched.sigma_max(xs)[:, None, None]
        ball_max = float(_batched.sigma_max(apply_batched(r, xs)).max())
        worst_excess = max(worst_excess, ball_max - rep.value)
        ok &= ball_max <= rep.value + 1e-6
        sigma = spectral_norm(matricize(r))
        eps = 1e-8 * sigma
        ok &= sigma / np.sqrt(2) - eps <= rep.value <= np.sqrt(2) * sigma + eps
    record(
        4,
        "unit-ball supremum bounded by unitary supremum",
        ok,
        f"worst ball excess {worst_excess:.2e} <= 1e-6, matricization sandwich held",
    )


def test_criterion_05_field_of_values():
    jordan = field_of_values(np.array([[0.0, 1.0], [0.0, 0.0]]), 64)
    jordan_err = float(np.abs(jordan.support - 0.5).max())
    ok = jordan_err <= 1e-8

    rng = np.random.default_rng(505)
    normal_err = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = haar_unitary(n, rng)
        c = u @ np.diag(lam) @ u.conj().T
        reg = field_of_values(c, 64)
        expected = cloud_supports(lam, 64)
        normal_err = max(normal_err, float(np.abs(reg.support - expected).max()))
    ok &= normal_err <= 1e-8
    record(
        5,
        "field of values: disk and eigenvalue hulls",
        ok,
        f"jordan error {jordan_err:.2e}, normal-matrix error {normal_err:.2e} <= 1e-8",
    )


def test_criterion_06_ray_monotonicity(main_batch):
    reports, _ = main_batch
    worst = -np.inf
    ok = True
    for rep in reports:
        chk = rep.check("ray_monotone")
        worst = max(worst, chk.discrepancy)
        ok &= chk.passed
    record(6, "ray schedule monotone", ok, f"worst increase {worst:.2e} within 1e-6*scale")


def test_criterion_07_union_hull_convexity(main_batch):
    reports, _ = main_batch
    worst = 0.0
    ok = True
    for rep in reports:
        chk = rep.check("orbit_hull_filling")
        scale = rep.diagnostics["scale"]
        worst = max(worst, chk.discrepancy / scale)
        ok &= chk.discrepancy <= 2e-2 * scale
    record(7, "witness-cloud hull fills orbit region", ok,
           f"worst gap/scale {worst:.2e} <= 2e-2")


def test_criterion_08_projection_multiplication():
    m = DEFAULT_DIRECTIONS
    p = np.diag([1.0, 0.0])
    rep = verify_mult_projection(
        [KTupleOperator.multiplication(p, p)], m=m, cfg=DEFAULT_CFG
    )[0]
    h0 = rep.diagnostics["support_rhs_0"]
    hpi = rep.diagnostics["support_rhs_pi"]
    oracle0 = projection_mult_support(0.0)
    oraclepi = projection_mult_support(np.pi)
    ok = abs(h0 - 1.0) <= 1e-3 and abs(hpi - 0.125) <= 1e-3
    ok &= abs(h0 - oracle0) <= 1e-3 and abs(hpi - oraclepi) <= 1e-3

    herm = hermitian_check([KTupleOperator.multiplication(p, p)], m=m, cfg=DEFAULT_CFG)[0]
    extent = herm.diagnostics["imaginary_extent"]
    ok &= (not herm.check("real_range").passed) and extent >= 0.2
    record(
        8,
        "two-sided projection multiplication",
        ok,
        f"h(0)={h0:.6f} (vs 1), h(pi)={hpi:.6f} (vs 0.125), imaginary extent {extent:.3f} >= 0.2",
    )


def test_criterion_09_gradient_correctness():
    rng = np.random.default_rng(909)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(2, 4))
        r = random_instance(n, 2, rng)
        if i % 2 == 0:
            theta = rng.uniform(0, 2 * np.pi)
            objective = OrbitSupportObjective([(r.a, r.b)], theta)
        else:
            z = complex(rng.normal(), rng.normal()) * rng.uniform(0, 20)
            objective = ShiftedNormObjective([(r.a, r.b)], z)
        u = haar_unitary(n, rng)
        k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        k = (k - k.conj().T) / 2
        k /= np.linalg.norm(k)
        analytic = directional_derivative(objective, u, k)
        numeric = finite_difference_directional(objective, u, k)
        worst = max(worst, abs(analytic - numeric) / max(abs(numeric), 1e-6))
    ok = worst <= 1e-5
    record(9, "analytic ascent direction vs finite differences", ok,
           f"worst relative error {worst:.2e} <= 1e-5")


def test_criterion_10_determinism(tmp_path):
    args = ["verify", "--count", "3", "--dim", "2", "--tuples", "2", "--seed", "42",
            "--directions", "16", "--restarts", "2"]
    blobs = {}
    for fmt in ("json", "csv"):
        pair = []
        for name in ("run1", "run2"):
            out = str(tmp_path / f"{name}.{fmt}")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*args, "--format", fmt, "--out", out])
            assert code == 0
            pair.append(open(out, "rb").read())
        blobs[fmt] = pair
    ok = all(pair[0] == pair[1] for pair in blobs.values())
    sizes = {fmt: len(pair[0]) for fmt, pair in blobs.items()}
    record(10, "bit-identical result files for identical runs", ok,
           f"json/csv outputs byte-equal across repeat runs {sizes}")
