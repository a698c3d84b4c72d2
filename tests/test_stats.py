import warnings

import numpy as np
import pytest

from rbrdo import FitError, UsageError, fit_front, goodness_of_fit, polyfit2
from rbrdo.stats import quadratic, second_difference_scale


class TestPolyfit2:
    def test_recovers_exact_quadratic(self):
        x = np.linspace(-3.0, 5.0, 40)
        y = 1.5 - 0.7 * x + 0.25 * x * x
        a0, a1, a2 = polyfit2(x, y)
        assert abs(a0 - 1.5) < 1e-10
        assert abs(a1 + 0.7) < 1e-10
        assert abs(a2 - 0.25) < 1e-10

    @pytest.mark.parametrize("big", [1e308, 1e160])
    def test_overflow_is_a_fit_error(self, big):
        # 1e308: x*x overflows; 1e160: x*x is finite, its column norm is not
        x = np.array([1.0, 1.5, 2.0, big])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="overflows"):
                polyfit2(x, np.arange(4.0))

    def test_constant_data(self):
        x = np.linspace(0.0, 1.0, 10)
        y = np.full(10, 3.25)
        a0, a1, a2 = polyfit2(x, y)
        assert abs(a0 - 3.25) < 1e-12
        assert abs(a1) < 1e-12 and abs(a2) < 1e-12

    def test_matches_independent_resolve(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-2.0, 8.0, size=30)
            y = rng.normal(size=30) + 0.3 * x * x
            ours = np.array(polyfit2(x, y))
            ref = np.polyfit(x, y, 2)[::-1]  # SVD-based lstsq, reversed order
            assert np.allclose(ours, ref, rtol=1e-8, atol=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 10.0, size=50)
        y = rng.normal(size=50)
        coef = polyfit2(x, y)
        resid = y - quadratic(coef, x)
        design = np.stack([np.ones_like(x), x, x * x], axis=1)
        moments = design.T @ resid
        scale = np.linalg.norm(design, axis=0) * np.linalg.norm(y)
        assert np.all(np.abs(moments) / scale < 1e-8)

    def test_rank_deficient(self):
        with pytest.raises(FitError):
            polyfit2(np.full(5, 2.0), np.arange(5.0))
        with pytest.raises(UsageError):
            polyfit2(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


class TestGoodnessOfFit:
    def test_perfect_fit(self):
        x = np.linspace(0.0, 4.0, 20)
        y = 2.0 + x - 0.5 * x * x
        rep = fit_front(x, y)
        assert rep.sqr < 1e-20
        assert rep.r2 == pytest.approx(1.0)
        assert rep.rms < 1e-10
        assert rep.n == 20

    def test_definitional_identity(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 5.0, size=33)
        y = rng.normal(size=33)
        rep = fit_front(x, y)
        assert rep.rms ** 2 * (rep.n - 3) == pytest.approx(rep.sqr, rel=1e-12)
        assert rep.r2_adj <= rep.r2 <= 1.0

    def test_dof_convention_matches_published_table(self):
        # published row: SQR = 9.483e-5 with RMS = 1.452e-3 implies
        # SQR / RMS^2 = n - 3 ~= 45, i.e. the residual-dof convention
        implied = 9.483e-5 / 1.452e-3 ** 2
        assert round(implied) == 45
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 5.0, size=48)
        y = rng.normal(size=48)
        rep = fit_front(x, y)
        assert rep.rms == pytest.approx(np.sqrt(rep.sqr / 45.0))

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 5.0, size=25)
        y = rng.normal(size=25)
        a = fit_front(x, y)
        b = fit_front(x, y + 100.0)
        assert b.coefficients[0] == pytest.approx(a.coefficients[0] + 100.0)
        assert b.coefficients[1:] == pytest.approx(a.coefficients[1:])
        assert b.sqr == pytest.approx(a.sqr, abs=1e-8)
        assert b.rms == pytest.approx(a.rms, abs=1e-10)

    def test_scale_covariance(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.0, 5.0, size=25)
        y = rng.normal(size=25) + x
        a = fit_front(x, y)
        b = fit_front(x, -3.0 * y)
        assert b.sqr == pytest.approx(9.0 * a.sqr)
        assert b.rms == pytest.approx(3.0 * a.rms)
        assert b.r2 == pytest.approx(a.r2)

    def test_small_n_rejected(self):
        x = np.array([0.0, 1.0, 2.0])
        with pytest.raises(UsageError):
            goodness_of_fit(x, x, (0.0, 1.0, 0.0))


class TestSecondDifferenceScale:
    def test_straight_line_is_exactly_zero(self):
        # spacings 1, 3, 1, 3 make the chord weights 3/4 and 1/4 exact
        x = np.array([0.0, 1.0, 4.0, 5.0, 8.0])
        assert second_difference_scale(x, 3.0 * x - 2.0) == 0.0

    def test_hand_computed_value(self):
        # chords: 3/4*0 + 1/4*1 - 2 = -7/4 and 1/4*2 + 3/4*3 - 1 = 7/4, each
        # weighted by 1/(9/16 + 1/16 + 1) = 8/13: sqrt(2 * 49/26 / 2)
        x = np.array([0.0, 1.0, 4.0, 5.0])
        y = np.array([0.0, 2.0, 1.0, 3.0])
        assert second_difference_scale(x, y) == pytest.approx(
            7.0 / np.sqrt(26.0), rel=1e-15)

    def test_validation(self):
        with pytest.raises(UsageError):
            second_difference_scale(np.array([0.0, 2.0, 1.0]), np.zeros(3))
        with pytest.raises(UsageError):
            second_difference_scale(np.arange(2.0), np.zeros(2))
        with pytest.raises(FitError):
            second_difference_scale(np.array([0.0, 1.0, 1.0, 1.0]),
                                    np.zeros(4))
