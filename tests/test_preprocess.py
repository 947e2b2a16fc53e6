import numpy as np
import pytest

from multiperiod.preprocess import (
    clip_extremes,
    hp_trend,
    preprocess,
    standardize,
)
from multiperiod.series import InvalidInputError, TimeSeries


class TestStandardize:
    def test_small_example(self):
        out, mean, std = standardize(TimeSeries([1.0, 2.0, 3.0]))
        assert mean == 2.0
        assert std == pytest.approx(1.0)  # sample std, ddof=1
        np.testing.assert_allclose(out.values, [-1.0, 0.0, 1.0])

    def test_constant_is_degenerate(self):
        out, mean, std = standardize(TimeSeries([5.0, 5.0, 5.0]))
        assert std == 0.0
        assert mean == 5.0
        np.testing.assert_array_equal(out.values, np.zeros(3))

    @pytest.mark.parametrize("factor", [1e-300, 1e-320, 1e300])
    def test_extreme_magnitudes_are_not_degenerate(self, factor):
        out, _, std = standardize(TimeSeries(factor * np.sin(np.arange(100.0))))
        assert std > 0.0
        assert np.std(out.values, ddof=1) == pytest.approx(1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        series = TimeSeries(rng.normal(3.0, 2.5, size=100))
        once, _, _ = standardize(series)
        twice, _, _ = standardize(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_output_moments(self):
        rng = np.random.default_rng(1)
        out, _, _ = standardize(TimeSeries(rng.normal(10, 7, size=333)))
        assert abs(out.values.mean()) < 1e-12
        assert np.std(out.values, ddof=1) == pytest.approx(1.0)


class TestHpTrend:
    def test_lambda_zero_is_identity(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=50)
        out = hp_trend(TimeSeries(y), 0.0)
        np.testing.assert_array_equal(out.values, y)

    def test_linear_input_is_fixed_point(self):
        t = np.arange(100, dtype=float)
        y = 1.7 + 0.3 * t
        for lam in (1e-3, 1.0, 1e6):
            out = hp_trend(TimeSeries(y), lam)
            np.testing.assert_allclose(out.values, y, atol=1e-8)

    def test_banded_matches_dense_oracle(self):
        # independent oracle: dense normal equations (I + 2*lam*D'D) tau = y
        rng = np.random.default_rng(3)
        n, lam = 200, 1.0
        y = rng.normal(size=n)
        d = np.zeros((n - 2, n))
        for r in range(n - 2):
            d[r, r : r + 3] = (1.0, -2.0, 1.0)
        dense = np.linalg.solve(np.eye(n) + 2.0 * lam * d.T @ d, y)
        out = hp_trend(TimeSeries(y), lam)
        assert np.max(np.abs(out.values - dense)) < 1e-8

    def test_linearity(self):
        rng = np.random.default_rng(4)
        y1, y2 = rng.normal(size=(2, 80))
        a, b = 2.5, -0.7
        lhs = hp_trend(TimeSeries(a * y1 + b * y2), 10.0).values
        rhs = a * hp_trend(TimeSeries(y1), 10.0).values + b * hp_trend(TimeSeries(y2), 10.0).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_large_lambda_tends_to_ols_line(self):
        rng = np.random.default_rng(5)
        t = np.arange(100, dtype=float)
        y = 0.5 + 0.2 * t + rng.normal(scale=0.3, size=100)
        coef = np.polyfit(t, y, 1)
        line = np.polyval(coef, t)
        out = hp_trend(TimeSeries(y), 1e12)
        assert np.max(np.abs(out.values - line)) < 1e-3

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            hp_trend(TimeSeries([1.0, 2.0]), 1.0)


class TestClipExtremes:
    def test_hand_example(self):
        # med=3, MAD=1; the spike maps to min(97, 3) = 3
        out = clip_extremes(np.array([1.0, 2.0, 3.0, 4.0, 100.0]), 3.0, 0.0)
        np.testing.assert_allclose(out.values, [-2.0, -1.0, 0.0, 1.0, 3.0])

    def test_already_small_values_pass_through(self):
        out = clip_extremes(np.array([-1.0, 0.0, 1.0]), 3.0, 0.0)
        np.testing.assert_allclose(out.values, [-1.0, 0.0, 1.0])

    def test_constant_degenerates_to_zeros(self):
        out = clip_extremes(np.full(10, 4.0), 3.0, 0.0)
        np.testing.assert_array_equal(out.values, np.zeros(10))

    def test_bounded(self):
        rng = np.random.default_rng(6)
        y = rng.standard_cauchy(size=500)
        out = clip_extremes(y, 2.5, 0.0)
        assert np.max(np.abs(out.values)) <= 2.5

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=200)
        base = clip_extremes(y, 3.0, 0.0).values
        shifted = clip_extremes(y + 123.456, 3.0, 0.0).values
        np.testing.assert_allclose(shifted, base, atol=1e-9)


class TestPreprocess:
    def test_removes_steep_ramp(self):
        # the ramp's signature is a nonzero mean first-difference; after
        # preprocessing it should be as small as a no-ramp control's
        t = np.arange(1000, dtype=float)
        signal = np.sin(2 * np.pi * t / 50)
        with_ramp = preprocess(TimeSeries(signal + 0.05 * t))
        control = preprocess(TimeSeries(signal))
        drift = abs(np.diff(with_ramp.values).mean())
        drift_control = abs(np.diff(control.values).mean())
        assert drift < 10 * drift_control + 1e-3

    def test_zero_series_stays_zero(self):
        out = preprocess(TimeSeries(np.zeros(64)))
        np.testing.assert_array_equal(out.values, np.zeros(64))

    def test_spiky_output_is_bounded(self):
        rng = np.random.default_rng(8)
        t = np.arange(1000, dtype=float)
        y = np.sin(2 * np.pi * t / 20)
        pos = rng.choice(1000, size=10, replace=False)
        y[pos] += 5.0
        out = preprocess(TimeSeries(y))
        assert np.max(np.abs(out.values)) <= 3.0

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=256)
        a = preprocess(TimeSeries(y)).values
        b = preprocess(TimeSeries(y.copy())).values
        np.testing.assert_array_equal(a, b)

    def test_rejects_short_series(self):
        with pytest.raises(InvalidInputError):
            preprocess(TimeSeries(np.ones(5)))

    def test_rejects_nonfinite_at_ingestion(self):
        with pytest.raises(InvalidInputError):
            TimeSeries([1.0, np.nan, 2.0])
        with pytest.raises(InvalidInputError):
            TimeSeries([1.0, np.inf])

    @pytest.mark.parametrize(
        "values",
        [
            np.array([1 + 2j] * 100),
            [1 + 2j] * 100,
            np.array([1.0] * 100, dtype=np.complex128),
            ["a"] * 100,
            np.array(["1.0"] * 100),
            [None] * 100,
            [1.0, None] * 50,
            [[1.0, 2.0], [3.0]],
        ],
    )
    def test_rejects_complex_and_non_numeric_at_ingestion(self, values):
        with pytest.raises(InvalidInputError):
            TimeSeries(values)

    def test_accepts_integer_and_float32_input(self):
        ints = TimeSeries(list(range(100)))
        singles = TimeSeries(np.arange(100, dtype=np.float32))
        assert ints.values.dtype == singles.values.dtype == np.float64
        np.testing.assert_array_equal(ints.values, singles.values)


class TestConfig:
    def test_validation(self):
        for value in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                hp_trend(TimeSeries(np.arange(8.0)), value)
