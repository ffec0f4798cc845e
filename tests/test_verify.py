import numpy as np
import pytest

import elemrange.verify as verify_mod
from elemrange.elemop import KTupleOperator, random_instance
from elemrange.linalg import haar_unitary
from elemrange.region import directions
from elemrange.unitary_opt import OptConfig
from elemrange.verify import (
    CheckResult,
    hermitian_check,
    random_batch,
    verify_derivation,
    verify_inclusion,
    verify_main,
    verify_mult_projection,
)

from oracles import rectangle_support

CFG = OptConfig(restarts=4, seed=0)
M = 16


class TestCheckResult:
    def test_pass_flag_is_pure(self):
        assert CheckResult("x", 0.5, 1.0).passed
        assert not CheckResult("x", 1.5, 1.0).passed
        assert CheckResult("x", 1.0, 1.0).passed

    def test_report_serialization_roundtrip(self):
        rep = verify_inclusion(KTupleOperator.identity(2), n_samples=5, cfg=CFG, m=8)
        d = rep.to_dict()
        for chk in d["checks"]:
            assert chk["passed"] == (chk["discrepancy"] <= chk["tolerance"])


class TestVerifyInclusion:
    def test_identity_operator(self):
        rep = verify_inclusion(KTupleOperator.identity(2), n_samples=20, cfg=CFG)
        assert rep.check("per_unitary_inclusion").discrepancy <= 1e-10
        assert rep.passed

    def test_zero_operator(self):
        # Exact-arithmetic violation is 0; |s e^{it} u| = s only up to the
        # roundoff of the singular-value evaluation.
        r = KTupleOperator(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
        rep = verify_inclusion(r, n_samples=10, cfg=CFG)
        assert rep.check("per_unitary_inclusion").discrepancy <= 1e-12

    def test_random_instances(self, rng):
        for _ in range(20):
            r = random_instance(2, 2, rng)
            rep = verify_inclusion(r, n_samples=50, cfg=CFG, m=12)
            assert rep.check("per_unitary_inclusion").discrepancy <= 1e-10


class TestVerifyMain:
    def test_identity_operator(self):
        rep = verify_main([KTupleOperator.identity(2)], m=M, cfg=CFG)[0]
        assert rep.passed
        main = rep.check("main_formula")
        resid = rep.diagnostics["ray_residual_max"]
        assert main.discrepancy <= max(2e-2, 2 * resid)

    def test_scalar_operator(self, rng):
        alpha = complex(rng.normal(), rng.normal())
        r = KTupleOperator(
            (alpha * np.eye(2))[None], np.eye(2, dtype=complex)[None]
        )
        rep = verify_main([r], m=M, cfg=CFG)[0]
        lhs = rep.artifacts["lhs"].region
        rhs = rep.artifacts["rhs"].region
        expected = np.real(np.exp(-1j * directions(M)) * alpha)
        tol = rep.check("main_formula").tolerance
        assert np.abs(rhs.support - expected).max() <= tol
        assert np.abs(lhs.support - expected).max() <= tol
        assert rep.passed

    def test_derivation_instance(self):
        delta = KTupleOperator.derivation(np.diag([0.0, 1.0]), np.diag([0.0, 1.0j]))
        rep = verify_main([delta], m=M, cfg=CFG)[0]
        assert rep.passed
        expected = np.array([rectangle_support(t) for t in directions(M)])
        rhs = rep.artifacts["rhs"].region
        assert np.abs(rhs.support - expected).max() <= 5e-3

    def test_random_instance_passes(self, rng):
        r = random_instance(2, 2, rng)
        rep = verify_main([r], m=M, cfg=CFG)[0]
        assert rep.passed
        assert rep.check("ray_monotone").discrepancy <= rep.check("ray_monotone").tolerance

    def test_determinism(self):
        r = random_batch(1, 2, 2, seed=5)[0]
        rep1 = verify_main([r], m=M, cfg=CFG)[0]
        rep2 = verify_main([r], m=M, cfg=CFG)[0]
        assert rep1.to_dict() == rep2.to_dict()

    def test_tolerance_override(self):
        rep = verify_main([KTupleOperator.identity(2)], m=M, cfg=CFG, tol=1e-12)[0]
        assert rep.check("main_formula").tolerance == 1e-12

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), 8.0])
    def test_rejects_bad_smax_factor_first(self, monkeypatch, factor):
        # The ray schedule is built after the norm and the orbit sweep; a bad
        # factor must be rejected before either runs.
        def no_optimization(*args, **kwargs):
            raise AssertionError("optimization ran")

        monkeypatch.setattr(verify_mod, "russo_dye_norm", no_optimization)
        monkeypatch.setattr(verify_mod, "orbit_region", no_optimization)
        with pytest.raises(ValueError, match="smax_factor"):
            verify_main([KTupleOperator.identity(2)], m=M, cfg=CFG, smax_factor=factor)


class TestVerifyDerivation:
    def test_identity_pair_is_zero_region(self):
        rep = verify_derivation([(np.eye(2), np.eye(2))], m=M, cfg=CFG)[0]
        assert rep.passed
        rhs = rep.artifacts["rhs"].region
        assert np.abs(rhs.support).max() <= 1e-6

    def test_exact_rectangle(self):
        rep = verify_derivation([(np.diag([0.0, 1.0]), np.diag([0.0, 1.0j]))], m=M, cfg=CFG)[0]
        assert rep.passed
        oracle = rep.artifacts["oracle"]
        expected = np.array([rectangle_support(t) for t in directions(M)])
        assert np.abs(oracle.support - expected).max() <= 1e-12

    def test_symmetric_segment(self):
        a = np.diag([0.0, 1.0])
        rep = verify_derivation([(a, a)], m=M, cfg=CFG)[0]
        assert rep.passed
        rhs = rep.artifacts["rhs"].region
        # W(A) - W(A) = [-1, 1]: real, symmetric, contains 0.
        assert rhs.support[0] == pytest.approx(1.0, abs=1e-6)
        assert rhs.support[M // 2] == pytest.approx(1.0, abs=1e-6)
        assert rhs.support[M // 4] == pytest.approx(0.0, abs=1e-6)

    def test_conjugation_invariant_discrepancy(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w = haar_unitary(2, rng)
        wh = w.conj().T
        rep1 = verify_derivation([(a, b)], m=M, cfg=CFG)[0]
        rep2 = verify_derivation([(wh @ a @ w, wh @ b @ w)], m=M, cfg=CFG)[0]
        d1 = rep1.check("derivation_difference").discrepancy
        d2 = rep2.check("derivation_difference").discrepancy
        tol = rep1.check("derivation_difference").tolerance
        assert abs(d1 - d2) <= tol

    def test_random_pairs(self, rng):
        for n in (2, 3):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rep = verify_derivation([(a, b)], m=M, cfg=CFG)[0]
            assert rep.passed

    def test_rejects_odd_directions(self, monkeypatch):
        # The oracle negates W(b), a half-turn grid rotation that needs even
        # m; the check must fail before the orbit sweep runs.
        def no_sweep(*args, **kwargs):
            raise AssertionError("orbit sweep ran")

        monkeypatch.setattr(verify_mod, "orbit_region", no_sweep)
        with pytest.raises(ValueError, match="even"):
            verify_derivation([(np.eye(2), np.eye(2))], m=9, cfg=CFG)[0]

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c", "d"]])
    def test_rejects_labels_not_one_per_pair(self, monkeypatch, labels):
        # zip would drop the pairs past a short list; the check must fail
        # before the orbit sweep runs.
        def no_sweep(*args, **kwargs):
            raise AssertionError("orbit sweep ran")

        monkeypatch.setattr(verify_mod, "orbit_region", no_sweep)
        pairs = [(np.eye(2), np.eye(2))] * 3
        with pytest.raises(ValueError, match="labels"):
            verify_derivation(pairs, m=M, cfg=CFG, labels=labels)


class TestVerifyMultProjection:
    def test_identity_projection(self):
        rep = verify_mult_projection([np.eye(2)], m=M, cfg=CFG)[0]
        assert rep.passed
        assert rep.diagnostics["support_rhs_0"] == pytest.approx(1.0, abs=1e-8)

    def test_zero_projection(self):
        rep = verify_mult_projection([np.zeros((2, 2))], m=M, cfg=CFG)[0]
        assert rep.passed
        assert abs(rep.diagnostics["support_rhs_0"]) <= 1e-10

    def test_rank_one_supports(self):
        rep = verify_mult_projection([np.diag([1.0, 0.0])], m=M, cfg=CFG)[0]
        assert rep.diagnostics["support_rhs_0"] == pytest.approx(1.0, abs=1e-3)
        assert rep.diagnostics["support_rhs_pi"] == pytest.approx(0.125, abs=1e-3)

    def test_rejects_non_projection(self, monkeypatch):
        with pytest.raises(ValueError):
            verify_mult_projection([np.diag([0.5, 0.0])], m=M, cfg=CFG)[0]
        with pytest.raises(ValueError):
            verify_mult_projection([np.array([[0.0, 1.0], [0.0, 0.0]])], m=M, cfg=CFG)[0]

        # Every entry is checked before the batch runs.
        def no_verify(*args, **kwargs):
            raise AssertionError("verification ran")

        monkeypatch.setattr(verify_mod, "verify_main", no_verify)
        with pytest.raises(ValueError, match="projection"):
            verify_mult_projection([np.eye(2), np.diag([0.5, 0.0])], m=M, cfg=CFG)

    def test_rejects_odd_directions(self, monkeypatch):
        # Direction m // 2 is pi only for even m.
        def no_verify(*args, **kwargs):
            raise AssertionError("verification ran")

        monkeypatch.setattr(verify_mod, "verify_main", no_verify)
        with pytest.raises(ValueError, match="even"):
            verify_mult_projection([np.diag([1.0, 0.0])], m=9, cfg=CFG)[0]


class TestHermitianCheck:
    def test_imaginary_identity_not_hermitian(self):
        r = KTupleOperator((1j * np.eye(2))[None], np.eye(2, dtype=complex)[None])
        rep = hermitian_check([r], m=M, cfg=CFG)[0]
        assert not rep.check("real_range").passed
        assert rep.diagnostics["imaginary_extent"] == pytest.approx(1.0, abs=1e-6)

    def test_inner_derivation_is_hermitian(self):
        a = np.diag([0.0, 1.0])
        rep = hermitian_check([KTupleOperator.derivation(a, a)], m=M, cfg=CFG)[0]
        assert rep.check("real_range").passed
        assert rep.diagnostics["sampled_asymmetry"] <= 1e-10

    def test_projection_mult_not_hermitian(self):
        p = np.diag([1.0, 0.0])
        rep = hermitian_check([KTupleOperator.multiplication(p, p)], m=M, cfg=CFG)[0]
        assert not rep.check("real_range").passed
        assert rep.diagnostics["imaginary_extent"] >= 0.2

    def test_projection_report_carries_a_fresh_checks_diagnostics(self):
        # verify_mult_projection reads the Hermitian diagnostics off its own
        # orbit estimate; they are those of a separate hermitian_check.
        p = np.diag([1.0, 0.0])
        proj = verify_mult_projection([p], m=M, cfg=CFG)[0]
        fresh = hermitian_check([KTupleOperator.multiplication(p, p)], m=M, cfg=CFG)[0]
        assert proj.diagnostics["hermitian"] == fresh.check("real_range").passed
        for key in ("imaginary_extent", "sampled_asymmetry"):
            assert proj.diagnostics[key] == fresh.diagnostics[key]

    def test_batch_matches_solo_runs(self, rng):
        rs = [random_instance(3, 2, rng, label=f"h{i}") for i in range(3)]
        batch = hermitian_check(rs, m=M, cfg=CFG)
        for r, rep in zip(rs, batch):
            solo = hermitian_check([r], m=M, cfg=CFG)[0]
            assert rep.to_dict() == solo.to_dict()
            assert np.array_equal(
                rep.artifacts["rhs"].region.support, solo.artifacts["rhs"].region.support
            )


class TestRandomBatch:
    def test_labels_and_determinism(self):
        b1 = random_batch(3, 2, 2, seed=1)
        b2 = random_batch(3, 2, 2, seed=1)
        assert [r.label for r in b1] == ["rand-n2k2-00", "rand-n2k2-01", "rand-n2k2-02"]
        for r1, r2 in zip(b1, b2):
            assert np.array_equal(r1.a, r2.a)
            assert np.array_equal(r1.b, r2.b)

    def test_different_seeds_differ(self):
        b1 = random_batch(1, 2, 2, seed=1)[0]
        b2 = random_batch(1, 2, 2, seed=2)[0]
        assert not np.array_equal(b1.a, b2.a)
