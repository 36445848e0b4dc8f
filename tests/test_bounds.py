import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gmfkrylov import (ArgumentError, PoleSequence, builtin, gk_approximate,
                       gmf_apply_reference, polynomial_bound_curve, polynomial_poles,
                       quasi_optimal_rational_bound, rational_bound_curve,
                       rational_gmf_approximate, rho_branches, rho_of, sample_h_sup,
                       si_closed_form_bound, si_optimal_pole, si_style_bound)
from gmfkrylov import bounds
from gmfkrylov.bounds import ELLIPSE_SAMPLES, _chui_hasson_constants, _ellipse_points
from gmfkrylov.harness import build_poles, load_config

from conftest import seeded_problem

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestEllipse:
    def test_samples_lie_on_ellipse(self):
        a, b, rho = 0.5, 3.0, 1.05
        z = _ellipse_points(rho, a, b)
        # constant sum of distances to the foci a^2, b^2
        dist = np.abs(z - a * a) + np.abs(z - b * b)
        semi_major = (b * b - a * a) * (rho + 1.0 / rho) / 4.0
        assert dist == pytest.approx(np.full(ELLIPSE_SAMPLES, 2 * semi_major), rel=1e-12)

    def test_degenerate_interval_rejected(self):
        f = builtin("sqrt")
        with pytest.raises(ArgumentError):
            _chui_hasson_constants(f.complex_eval, 2.0, 2.0, 1.1)
        with pytest.raises(ArgumentError):
            _chui_hasson_constants(f.complex_eval, 1.0, 2.0, 1.0)


class TestHalfPlaneConstant:
    def test_identity_function_constants(self):
        # f(z) = z: f2(sqrt(z)) = sqrt(z), so M2 = max |sqrt z| and N2 = 1;
        # the odd extension gives the same values on the left side
        a, b, rho = 0.5, 2.0, 1.2
        f = builtin("identity")
        C = _chui_hasson_constants(f.complex_eval, a, b, rho)
        z = _ellipse_points(rho, a, b)
        M2 = np.max(np.abs(np.sqrt(z)))
        expected = 2 * M2 + 2 * 1.0 / a
        assert C == pytest.approx(expected, rel=1e-12)

    def test_constant_by_hand_on_four_samples(self, monkeypatch):
        # a = 1, b = 3, rho = 3/2: the ellipse with foci 1, 9 is
        # z = 5 + 4 (13/12 cos t + 5/12 i sin t), sampled at t = 0, pi/2, pi,
        # 3 pi/2 as 28/3, 5 + 5i/3, 2/3, 5 - 5i/3. For f2(s) = s^3,
        # |f2(sqrt z)| = |z|^(3/2) and |f2(sqrt z)/sqrt z| = |z|, both largest
        # at z = 28/3, and the left half-plane repeats them: C = 2 (M + N/a)
        monkeypatch.setattr(bounds, "ELLIPSE_SAMPLES", 4)
        z = _ellipse_points(1.5, 1.0, 3.0)
        assert z == pytest.approx([28 / 3, 5 + 5j / 3, 2 / 3, 5 - 5j / 3], rel=1e-15)
        C = _chui_hasson_constants(lambda s: s ** 3, 1.0, 3.0, 1.5)
        assert C == pytest.approx(2.0 * ((28 / 3) ** 1.5 + 28 / 3), rel=1e-14)

    def test_sqrt_blows_up_at_limit_rho(self):
        # at rho = (b+a)/(b-a) the ellipse touches 0 and the N-terms of sqrt
        # diverge; the sampled maximum explodes as rho approaches the limit
        a, b = 0.5, 2.0
        rho_max = (b + a) / (b - a)
        f = builtin("sqrt")
        C_near = _chui_hasson_constants(f.complex_eval, a, b, 0.9999 * rho_max + 0.0001)
        C_mid = _chui_hasson_constants(f.complex_eval, a, b, 0.9 * rho_max + 0.1)
        assert C_near > 3.0 * C_mid
        assert math.isfinite(C_mid)

    def test_divergent_sample_reports_infinity(self):
        diverging = lambda s: 1.0 / (s - s)   # inf at every sample
        C = _chui_hasson_constants(diverging, 0.5, 2.0, 1.2)
        assert math.isinf(C)

    def test_rho_above_limit_rejected(self):
        f = builtin("sqrt")
        with pytest.raises(ArgumentError):
            _chui_hasson_constants(f.complex_eval, 0.5, 2.0, 2.0)


class TestPolynomialBound:
    def test_missing_complex_evaluator_falls_back(self):
        # without a complex evaluator only the pure geometric rate is reported
        from gmfkrylov import ScalarFunction
        bare = ScalarFunction("bare", np.sqrt)
        curve = polynomial_bound_curve(bare, 0.1, 10.0, 6)
        assert curve.constants["constant_mode"] == "rate-only"
        rho_max = 10.1 / 9.9
        assert curve.constants["rho_max"] == pytest.approx(rho_max)
        ratios = curve.values[:-1] / curve.values[1:]
        assert ratios == pytest.approx(np.full(5, rho_max), rel=1e-12)

    def test_dominates_measured_error_with_constant(self):
        f = builtin("sqrt")
        for seed in (1, 2, 3):
            op, b = seeded_problem(60, 60, "chebyshev2", 0.1, 10.0, seed)
            ref = gmf_apply_reference(f, op.dense, b)
            _, tr = gk_approximate(f, op, b, 40, reorth=True, reference=ref)
            curve = polynomial_bound_curve(f, 0.1, 10.0, 40,
                                           norm_b=float(np.linalg.norm(b)))
            errs = np.array(tr.errors) * np.linalg.norm(ref)
            assert np.all(errs <= curve.values[:len(errs)]), seed

    @pytest.mark.parametrize("k_max", [1, 30])
    @pytest.mark.parametrize("name", ["sqrt", "inv_quarter", "sqrt_log", "z_log_z"])
    def test_one_pass_equals_per_rho_loop(self, name, k_max):
        # the ellipses sampled a block at a time give the per-rho curve bit for bit
        f, a, b, nb = builtin(name), 0.1, 10.0, 1.7
        curve = polynomial_bound_curve(f, a, b, k_max, norm_b=nb)
        ks = np.arange(1, k_max + 1).astype(float)
        per_rho = []
        for rho in curve.constants["rho_grid"]:
            C = _chui_hasson_constants(f.complex_eval, a, b, rho)
            per_rho.append(2.0 * C * nb * rho / (rho - 1.0) * rho ** (-ks))
        assert np.array_equal(curve.values, np.min(per_rho, axis=0))

    @pytest.mark.parametrize("name", ["sqrt", "inv_quarter", "sqrt_log", "z_log_z"])
    def test_block_size_moves_no_bit(self, monkeypatch, name):
        f = builtin(name)
        curves = []
        for block in (1, 3, bounds.RHO_GRID_SIZE):
            monkeypatch.setattr(bounds, "RHO_BLOCK", block)
            curves.append(polynomial_bound_curve(f, 0.1, 10.0, 120, norm_b=1.7).values)
        assert all(np.array_equal(c, curves[0]) for c in curves[1:])

    @pytest.mark.parametrize("name", ["sqrt", "inv_quarter", "sqrt_log", "z_log_z"])
    def test_one_curve_stays_below_2_mb(self, name):
        # sampling all 40 ellipses at once took 8.8 MB per call, whatever n is
        f = builtin(name)
        polynomial_bound_curve(f, 0.1, 10.0, 120)
        tracemalloc.start()
        try:
            polynomial_bound_curve(f, 0.1, 10.0, 120)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestShiftInvertBound:
    def test_branches_coincide_at_optimal_pole(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = rng.uniform(0.05, 2.0)
            S = s * rng.uniform(1.5, 50.0)
            b1, b2 = rho_branches(s, S, -s * S)
            assert abs(b1 - b2) <= 1e-6 * abs(b1)

    def test_known_value(self):
        assert rho_of(1.0, 2.0, -2.0) == pytest.approx(3.0 - 2.0 * math.sqrt(2.0))

    def test_degenerate_interval_collapses(self):
        # sigma_min = sigma_max: both branches vanish, bound is 0
        assert rho_of(2.0, 2.0, -4.0) == pytest.approx(0.0, abs=1e-15)
        assert si_style_bound(2.0, 2.0, -4.0, 1.0, 3) == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_at_k0(self):
        val = si_closed_form_bound(0.1, 10.0, 2.0, 0, norm_b=3.0)
        assert val == pytest.approx(2.0 * 3.0 * 2.0 * math.sqrt(100.0))

    def test_positive_pole_rejected(self):
        with pytest.raises(ArgumentError):
            rho_of(1.0, 2.0, 0.5)

    def test_branches_reject_positive_pole(self):
        # a pole inside the squared interval would take a square root of a
        # negative number; the check runs before it
        with pytest.raises(ArgumentError):
            rho_branches(0.1, 10.0, 5.0)

    @pytest.mark.parametrize("xi", [-math.inf, math.inf, math.nan, 0.0, 1.0])
    def test_h_supremum_needs_a_finite_negative_pole(self, xi):
        # at xi = -inf the sample grid collapses onto t = 0; refused before it
        # is built, so without a RuntimeWarning (the suite makes one an error)
        with pytest.raises(ArgumentError, match="finite negative"):
            sample_h_sup(builtin("sqrt"), xi)

    @pytest.mark.parametrize("M", [math.nan, 0.0, -1.0, -math.inf])
    def test_bounds_need_a_positive_constant(self, M):
        # a NaN constant fails M <= 0 as well as M > 0: it is refused, not
        # carried into a NaN bound
        with pytest.raises(ArgumentError, match="M must be positive"):
            si_style_bound(0.1, 10.0, -1.0, M, 3)
        with pytest.raises(ArgumentError, match="M must be positive"):
            si_closed_form_bound(0.1, 10.0, M, 3)

    @pytest.mark.parametrize("xi", [-math.inf, math.nan, 0.0, 0.5])
    def test_rate_needs_a_finite_negative_pole(self, xi):
        # at xi = -inf both square roots are infinite and rho would be NaN
        with pytest.raises(ArgumentError, match="finite and negative"):
            rho_of(0.1, 10.0, xi)
        with pytest.raises(ArgumentError, match="finite and negative"):
            si_style_bound(0.1, 10.0, xi, 1.0, 3)

    @pytest.mark.parametrize("norm_b", [math.nan, math.inf, -math.inf, -1.0, "1", None, True])
    @pytest.mark.parametrize("bound", ["polynomial", "si_closed_form", "quasi_optimal",
                                       "rational_curve"])
    def test_bounds_need_a_finite_nonnegative_norm_b(self, bound, norm_b):
        # a NaN ||b|| gave a NaN bound (si_closed_form_bound, polynomial_bound_curve)
        call = {
            "polynomial": lambda nb: polynomial_bound_curve(builtin("sqrt"), 0.1, 10.0, 3,
                                                            norm_b=nb).values,
            "si_closed_form": lambda nb: si_closed_form_bound(0.1, 10.0, 1.0, 3, norm_b=nb),
            "quasi_optimal": lambda nb: quasi_optimal_rational_bound(
                builtin("sqrt"), si_optimal_pole(0.1, 10.0, 3), 0.1, 10.0, 3, norm_b=nb),
            "rational_curve": lambda nb: rational_bound_curve(
                builtin("sqrt"), si_optimal_pole(0.1, 10.0, 3), 0.1, 10.0, 3, norm_b=nb).values,
        }[bound]
        with pytest.raises(ArgumentError, match="norm_b must be"):
            call(norm_b)
        assert np.all(np.asarray(call(0)) == 0.0)
        assert np.all(np.asarray(call(np.float64(2.0))) == 2.0 * np.asarray(call(1.0)))

    def test_h_supremum_for_log_function(self):
        # g(w) = log(1 + w^(1/4)) / w^(1/4) has supremum 1 at w -> 0
        M = sample_h_sup(builtin("sqrt_log1p_sqrt"), -1.0)
        assert M == pytest.approx(1.0, rel=1e-3)
        assert M <= 1.0 + 1e-12


@pytest.mark.parametrize("interval", [(0.1, math.inf), (math.nan, 10.0), (0.1, math.nan),
                                      (0.0, 10.0), (10.0, 0.1)])
@pytest.mark.parametrize("call", [
    lambda s, S: si_optimal_pole(s, S, 3),
    lambda s, S: PoleSequence([-1.0]).validate_interval(s, S),
    lambda s, S: rho_of(s, S, -1.0),
    lambda s, S: si_closed_form_bound(s, S, 1.0, 3),
    lambda s, S: polynomial_bound_curve(builtin("sqrt"), s, S, 2),
    lambda s, S: rational_bound_curve(builtin("sqrt"), polynomial_poles(3), s, S, 2),
], ids=["si_optimal_pole", "validate_interval", "rho_of", "si_closed_form_bound",
        "polynomial_bound_curve", "rational_bound_curve"])
def test_interval_is_positive_ordered_and_finite(call, interval):
    # sigma_max = inf made si_optimal_pole's poles -inf, the pole at infinity,
    # rho_of returned nan, and a NaN end let validate_interval pass any pole
    with pytest.raises(ArgumentError, match="need 0 < sigma"):
        call(*interval)


class TestQuasiOptimalRationalBound:
    def test_identity_in_space(self):
        val = quasi_optimal_rational_bound(builtin("identity"),
                                           si_optimal_pole(0.5, 4.0, 5), 0.5, 4.0, 3)
        assert val <= 1e-12

    def test_cubic_with_polynomial_poles(self):
        val = quasi_optimal_rational_bound(builtin("z^3"), polynomial_poles(3),
                                           0.5, 4.0, 2)
        assert val <= 1e-10

    def test_monotone_in_k(self):
        f = builtin("sqrt_log1p_sqrt")
        poles = si_optimal_pole(0.1, 10.0, 25)
        vals = [quasi_optimal_rational_bound(f, poles, 0.1, 10.0, k)
                for k in range(1, 26)]
        assert all(vals[i + 1] <= vals[i] * (1 + 1e-9) for i in range(24))

    def test_dominates_rational_error(self):
        f = builtin("sqrt_log1p_sqrt")
        for seed in (7, 8, 9):
            op, b = seeded_problem(80, 80, "logspace", 0.1, 10.0, seed)
            ref = gmf_apply_reference(f, op.dense, b)
            poles = si_optimal_pole(0.1, 10.0, 15)
            _, tr = rational_gmf_approximate(f, op, b, poles, 15, reference=ref)
            nb, nr = np.linalg.norm(b), np.linalg.norm(ref)
            for k, err in zip(tr.ks, tr.errors):
                bound = quasi_optimal_rational_bound(f, poles, 0.1, 10.0, k,
                                                     norm_b=nb)
                assert err * nr <= bound, (seed, k)

    @pytest.mark.parametrize("name", ["rational_optpoles_narrow", "rational_optpoles_wide"])
    def test_curve_equals_per_k_bound(self, name):
        # the leading k columns of the basis built for k_max are the basis for k
        config = load_config(CONFIGS / f"{name}.json")
        f, poles = builtin(config.function), build_poles(config)
        lo, hi = config.matrix.lo, config.matrix.hi
        curve = rational_bound_curve(f, poles, lo, hi, config.k_max, norm_b=2.5)
        per_k = [quasi_optimal_rational_bound(f, poles, lo, hi, k, norm_b=2.5)
                 for k in range(1, config.k_max + 1)]
        assert curve.ks.tolist() == list(range(1, config.k_max + 1))
        assert np.array_equal(curve.values, per_k)
