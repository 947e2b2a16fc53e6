import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_solve_banded, cholesky_banded, solveh_banded

from multiperiod.cache import TABLES
from multiperiod.preprocess import (
    CLIP_C,
    _hp_plan,
    _hp_residual,
    clip_extremes,
    hp_trend,
    preprocess,
)
from multiperiod.reductions import standardize
from multiperiod.series import InvalidInputError, TimeSeries


def numpy_standardize(x, ddof):
    """``standardize`` from numpy's mean and std (oracle)."""
    if x.max() == x.min():
        return np.zeros_like(x), x[0], 0.0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        std = np.std(x, ddof=ddof)
    scale = 1.0 if 0.0 < std < math.inf else np.max(np.abs(x))
    v = x / scale
    mean, std = np.mean(v), np.std(v, ddof=ddof)
    return (v - mean) / std, mean, std, scale


class TestStandardize:
    def test_small_example(self):
        out, mean, std, scale = standardize(np.array([1.0, 2.0, 3.0]), 1)
        assert mean == 2.0 and scale == 1.0
        assert std == pytest.approx(1.0)  # sample std, ddof=1
        np.testing.assert_allclose(out, [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("value", [5.0, 0.1, -7e-300])
    def test_constant_is_degenerate(self, value):
        # 3 * 0.1 rounds up, so 0.1's mean leaves deviations of about 1e-17
        out, mean, std, scale = standardize(np.full(3, value), 0)
        assert std == 0.0 and mean == value and scale == 1.0
        np.testing.assert_array_equal(out, np.zeros(3))
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("factor", [1e-300, 1e-320, 1e300])
    def test_extreme_magnitudes_are_not_degenerate(self, factor):
        x = factor * np.sin(np.arange(100.0))
        out, _, std, scale = standardize(x, 1)
        assert std > 0.0 and scale == np.max(np.abs(x))
        assert np.std(out, ddof=1) == pytest.approx(1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        once = standardize(rng.normal(3.0, 2.5, size=100), 1)[0]
        twice = standardize(once, 1)[0]
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_output_moments(self):
        rng = np.random.default_rng(1)
        out = standardize(rng.normal(10, 7, size=333), 0)[0]
        assert abs(out.mean()) < 1e-12
        assert out.std() == pytest.approx(1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        x=arrays(
            np.float64,
            st.integers(1, 60),
            elements=st.one_of(st.sampled_from([0.0, -0.0, 0.1, 1.0]), st.floats(-1.0, 1.0)),
        ),
        # magnitudes whose sums or squares under- or overflow
        scale=st.sampled_from([1e-320, 1e-300, 1e-160, 1.0, 1e150, 1e300, 1.7e308]),
        constant=st.booleans(),
        ddof=st.sampled_from([0, 1]),
    )
    def test_equals_numpys_formula(self, x, scale, constant, ddof):
        # constant, extreme-magnitude and ordinary series
        x = x * scale
        if constant:
            x[:] = x[0]
        got = standardize(x.copy(), ddof)
        expected = numpy_standardize(x, ddof)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(got[0]), np.signbit(expected[0]))
        np.testing.assert_array_equal(np.signbit(got[2]), np.signbit(expected[2]))


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

    @pytest.mark.parametrize("hp_lambda", [1e300, np.finfo(np.float64).max])
    def test_finite_lambda_near_the_float_maximum_gives_the_ols_line(self, hp_lambda):
        # 2*lambda*D'D overflows here, so no solve may form it
        t = np.arange(100, dtype=float)
        y = 0.5 + 0.2 * t + np.random.default_rng(5).normal(scale=0.3, size=100)
        line = np.polyval(np.polyfit(t, y, 1), t)
        out = hp_trend(TimeSeries(y), hp_lambda)
        assert np.max(np.abs(out.values - line)) < 1e-9

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

    @settings(max_examples=300, deadline=None)
    @given(
        x=arrays(
            np.float64,
            st.integers(1, 60),  # odd and even lengths
            elements=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0]), st.floats(-1e6, 1e6)),
        ),
        bound=st.sampled_from([0.5, 2.5, 3.0]),
    )
    def test_equals_the_numpy_median_formula(self, x, bound):
        kept = x.copy()
        med = float(np.median(x))
        mad = float(np.median(np.abs(x - med)))
        if mad <= 0.0:
            expected = np.zeros_like(x)
        else:
            with np.errstate(over="ignore"):  # +-inf clips to +-bound
                expected = np.clip((x - med) / mad, -bound, bound)
        out = clip_extremes(x, bound, 0.0).values
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))
        np.testing.assert_array_equal(x, kept)  # the input is not reordered

    def test_subnormal_mad_clips_without_overflow_warning(self):
        x = np.array([0.0, 5e-324, 0.0, 1.0, 1.0])  # MAD is the least subnormal
        out = clip_extremes(x, 0.5, 0.0).values
        np.testing.assert_array_equal(out, [-0.5, 0.0, -0.5, 0.5, 0.5])

    def test_list_input(self):
        values = [1.0, 2.0, 3.0, 4.0, 100.0]
        np.testing.assert_array_equal(
            clip_extremes(values, 3.0, 0.0).values, clip_extremes(np.array(values), 3.0, 0.0).values
        )

    @pytest.mark.parametrize(
        "x",
        [
            np.array([]),
            np.ones((3, 3)),
            np.array(1.0),
            np.array([1.0, math.inf, 2.0]),
            np.array([1.0, -math.inf, 2.0]),
            np.array([1.0, math.nan, 2.0]),
            ["a", "b"],
            np.array([1j, 2j]),
        ],
    )
    def test_bad_values_rejected(self, x):
        with pytest.raises(InvalidInputError):
            clip_extremes(x, 3.0, 0.0)

    @pytest.mark.parametrize("bound", [0.0, -1.0, math.nan, math.inf, True, "3", None])
    def test_bound_must_be_a_positive_finite_real(self, bound):
        with pytest.raises(InvalidInputError):
            clip_extremes(np.arange(5.0), bound, 0.0)

    @pytest.mark.parametrize("mad_floor", [-1e-12, math.nan, math.inf, False, "0", None])
    def test_mad_floor_must_be_a_nonnegative_finite_real(self, mad_floor):
        with pytest.raises(InvalidInputError):
            clip_extremes(np.arange(5.0), 3.0, mad_floor)


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

    @pytest.mark.parametrize("n", [64, 1000, 4093])
    @pytest.mark.parametrize("hp_lambda", [1.0, 1e3, 1e9, 1e18])
    @pytest.mark.parametrize("slope, offset", [(3.0, -2.0), (0.001, 5.0), (0.7, 1e4)])
    def test_exact_line_is_degenerate_at_every_lambda(self, n, hp_lambda, slope, offset):
        # the detrended line is round-off, which no lambda-scaled floor
        # bounds: at lambda = 1, N = 64, 0.001*t + 5 leaves a MAD of 3e-14
        line = TimeSeries(slope * np.arange(n, dtype=float) + offset)
        np.testing.assert_array_equal(preprocess(line, hp_lambda).values, np.zeros(n))

    @pytest.mark.parametrize("hp_lambda", [1.0, 1e3, 1e15, 1e18, 1e300])
    def test_unit_sine_is_not_degenerate_at_any_lambda(self, hp_lambda):
        # its detrended MAD is 4.8e-4 at lambda = 1 and near 1 from 1e6 up
        t = np.arange(1000.0)
        out = preprocess(TimeSeries(np.sin(2 * np.pi * t / 50)), hp_lambda)
        assert np.max(np.abs(out.values)) > 1.0

    def test_series_whose_std_underflows_is_clipped_like_its_rescaling(self):
        # 63 zeros and one 5e-324 vary, but their std (6e-325) rounds to 0;
        # scaled by 2^1074 they are 63 zeros and a one, whose preprocessing
        # the subnormal series must match bit for bit
        tiny = np.zeros(64)
        tiny[-1] = 5e-324
        out = preprocess(TimeSeries(tiny)).values
        assert np.max(np.abs(out)) <= CLIP_C
        rescaled = preprocess(TimeSeries(tiny * 2.0**537 * 2.0**537)).values
        np.testing.assert_array_equal(out, rescaled)

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
        for value in (-1.0, np.nan, np.inf, True, np.True_, 1j, 1 + 0j, "1e6", None):
            with pytest.raises(InvalidInputError):
                hp_trend(TimeSeries(np.arange(8.0)), value)


def banded_normal_equations(n, hp_lambda):
    """I + 2*lambda*D'D in LAPACK's upper-banded layout (row 0 = 2nd superdiagonal)."""
    rows = np.ones(n - 2)
    ab = np.zeros((3, n))
    ab[0, 2:] = 2.0 * hp_lambda * rows
    ab[1, 1:] = 2.0 * hp_lambda * np.convolve(rows, [-2.0, -2.0])
    ab[2, :] = 1.0 + 2.0 * hp_lambda * np.convolve(rows, [1.0, 4.0, 1.0])
    return ab


def solveh_reference(x, hp_lambda):
    """The trend by one banded solve of (I + 2*lambda*D'D) tau = x, factor and all."""
    return solveh_banded(banded_normal_equations(x.size, hp_lambda), x, lower=False)


def conditioning_bound(x, hp_lambda):
    """cond(I + 2*lambda*D'D) * eps * max|x|, with the condition number bounded by 1 + 32*lambda."""
    return (1.0 + 32.0 * hp_lambda) * np.finfo(np.float64).eps * np.max(np.abs(x))


def refined_residual(x, hp_lambda):
    """x less its trend, by six rounds of iterative refinement in long double.

    Each round takes the residual of the normal equations in long double and
    solves for the correction with LAPACK's banded Cholesky factor; the
    trend accumulates in long double.
    """
    n = x.size
    factor = cholesky_banded(banded_normal_equations(n, hp_lambda), lower=False)
    xl = x.astype(np.longdouble)
    tau = np.zeros(n, np.longdouble)
    two_lambda = 2 * np.longdouble(hp_lambda)
    for _ in range(6):
        d2 = tau[2:] - 2 * tau[1:-1] + tau[:-2]
        dtd = np.zeros(n, np.longdouble)
        dtd[:-2] += d2
        dtd[1:-1] -= 2 * d2
        dtd[2:] += d2
        correction = cho_solve_banded((factor, False), (xl - tau - two_lambda * dtd).astype(float))
        tau += correction.astype(np.longdouble)
    return xl - tau


class TestTrendSolve:
    @pytest.mark.parametrize("n", [3, 64, 1000, 4000])
    @pytest.mark.parametrize("hp_lambda", [0.5, 1e3, 1e6, 1e9])
    def test_equals_cho_solve_banded(self, n, hp_lambda):
        """Equal to LAPACK's banded Cholesky solve up to that solve's error bound."""
        x = np.random.default_rng(n).normal(size=n) + np.linspace(0.0, 5.0, n)
        factor = cholesky_banded(banded_normal_equations(n, hp_lambda), lower=False)
        expected = cho_solve_banded((factor, False), x)
        gap = np.max(np.abs(hp_trend(TimeSeries(x), hp_lambda).values - expected))
        assert gap <= conditioning_bound(x, hp_lambda)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="the reference needs a long double wider than float64",
    )
    @pytest.mark.parametrize("n", [8, 64, 1000, 4000])
    @pytest.mark.parametrize("hp_lambda", [1e3, 1e6, 1e9])
    def test_detrended_error_is_no_larger_than_the_banded_solves(self, n, hp_lambda):
        x = np.random.default_rng(n).normal(size=n) + np.linspace(0.0, 5.0, n)
        exact = refined_residual(x, hp_lambda)
        error = np.max(np.abs(_hp_residual(x, hp_lambda) - exact))
        banded_error = np.max(np.abs(x - solveh_reference(x, hp_lambda) - exact))
        assert error <= banded_error


class TestTrendFactor:
    @pytest.mark.parametrize("n", [3, 64, 100, 1000, 4000])
    @pytest.mark.parametrize("hp_lambda", [0.5, 1e3, 1e6, 1e9])
    def test_cached_factor_solve_is_bit_identical(self, n, hp_lambda):
        """A series solved with the cached plan equals the same series solved
        with a fresh one, bit for bit, and agrees with solveh_banded."""
        rng = np.random.default_rng(n)
        for _ in range(2):  # the second series reuses the cached plan
            x = rng.normal(size=n) + np.linspace(0.0, 5.0, n)
            trend = hp_trend(TimeSeries(x), hp_lambda).values
            assert np.max(np.abs(trend - solveh_reference(x, hp_lambda))) <= conditioning_bound(
                x, hp_lambda
            )
        TABLES.clear()
        np.testing.assert_array_equal(hp_trend(TimeSeries(x), hp_lambda).values, trend)

    def test_integer_and_float_lambda_give_the_same_trend(self):
        x = np.sin(np.arange(50.0))
        np.testing.assert_array_equal(
            hp_trend(TimeSeries(x), 1000).values, hp_trend(TimeSeries(x), np.float64(1e3)).values
        )

    def test_factor_is_read_only_and_the_cache_bounded(self):
        """The plan (diagonal scale, correction columns, 2x2 inverse) is read-only."""
        for n in range(10, 30):
            for array in _hp_plan(n, 1e6):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array.flat[0] = 1.0
        assert TABLES.nbytes <= TABLES.budget

    def test_trend_inverse_is_the_same_on_every_blas_kernel(self):
        # the 2x2 inverse is an LU in scalars, so no LAPACK kernel sets its
        # rounding; the AVX-512 kernel's inverse differed at the first three
        frozen = {
            (66, 1e6): ("0x1.ef849fb639df8p-5", "-0x1.cad5ff58a0628p-6",
                        "-0x1.cad5ff58a0626p-6", "0x1.ef849fb639df8p-5"),
            (89, 1e6): ("0x1.829346ab243f0p-5", "-0x1.3f2ced2949885p-6",
                        "-0x1.3f2ced2949884p-6", "0x1.829346ab243f5p-5"),
            (92, 1e10): ("0x1.5e6e99bbb434dp-5", "-0x1.58ae1a3356afbp-6",
                         "-0x1.58ae1a3356afdp-6", "0x1.5e6e99bbb434ap-5"),
            (1000, 1e6): ("0x1.2e5b4e3a1e651p-5", "0x1.2664456b5311ep-31",
                          "0x1.2664456b5311ep-31", "0x1.2e5b4e3a1e651p-5"),
        }
        for (n, hp_lambda), expected in frozen.items():
            inverse = _hp_plan(n, hp_lambda)[2]
            assert tuple(float(v).hex() for v in inverse.flat) == expected
