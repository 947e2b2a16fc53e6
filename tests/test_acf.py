import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multiperiod.acf import (
    find_peaks,
    full_range_periodogram,
    huber_acf,
    period_from_peaks,
)
from multiperiod.series import InvalidInputError
from multiperiod.spectral import zero_pad

from oracles import unit_spectrum, vanilla_periodogram


def vanilla_pipeline_acf(w):
    """Plain-spectrum path: pad, half spectrum plus Nyquist, invert."""
    x = zero_pad(np.asarray(w, dtype=float))
    hybrid = unit_spectrum(x, robust=False)
    return huber_acf(full_range_periodogram(hybrid, 0)), x


def direct_linear_autocorrelation(w):
    n = w.size
    return np.array([np.dot(w[: n - t], w[t:]) for t in range(n)])


class TestFullRangePeriodogram:
    def test_power_then_nyquist(self):
        rng = np.random.default_rng(0)
        x = zero_pad(rng.normal(size=50))
        hybrid = unit_spectrum(x, robust=False)
        p_bar = full_range_periodogram(hybrid, 0)
        # bins 0..N of the plain periodogram, DC zeroed, read in place; the
        # real and the complex FFT round differently
        expected = vanilla_periodogram(x)[:51]
        expected[0] = 0.0
        np.testing.assert_allclose(p_bar, expected, rtol=1e-13, atol=0.0)
        assert np.shares_memory(p_bar, hybrid.power)

    def test_nyquist_hand_example(self):
        # x = [1,-1,1,-1,0,0,0,0]: paired differences (2,2,0,0) sum to 4,
        # so the Nyquist ordinate is 16/8 = 2, matching |sum x_t (-1)^t|^2/8
        x = np.array([1.0, -1.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
        hybrid = unit_spectrum(x, robust=False)
        p_bar = full_range_periodogram(hybrid, 0)
        assert p_bar[4] == pytest.approx(2.0)
        full = vanilla_periodogram(x)
        assert p_bar[4] == pytest.approx(full[4])

    def test_zero_series(self):
        x = np.zeros(32)
        hybrid = unit_spectrum(x, robust=False)
        np.testing.assert_array_equal(full_range_periodogram(hybrid, 0), np.zeros(17))

    def test_nyquist_matches_plain_spectrum_generally(self):
        rng = np.random.default_rng(1)
        x = zero_pad(rng.normal(size=64))
        hybrid = unit_spectrum(x, robust=False)
        p_bar = full_range_periodogram(hybrid, 0)
        assert p_bar[64] == pytest.approx(vanilla_periodogram(x)[64], rel=1e-10)


class TestHuberAcf:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(2)
        acf, _ = vanilla_pipeline_acf(rng.normal(size=80))
        assert acf[0] == 1.0

    def test_matches_direct_summation(self):
        # zero-padding turns the circular correlation into the linear one:
        # acf[lag] = N * sum_t w_t w_{t+lag} / ((N - lag) * sum_t w_t^2)
        rng = np.random.default_rng(3)
        for n in (50, 100, 257):
            w = rng.normal(size=n)
            acf, x = vanilla_pipeline_acf(w)
            direct = direct_linear_autocorrelation(x[:n])
            expected = n * direct / ((n - np.arange(n)) * direct[0])
            np.testing.assert_allclose(acf, expected, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n", [1, 64, 1000, 1009])
    def test_overlap_divisor_is_the_per_lag_count_bit_for_bit(self, n):
        spectra = np.abs(np.random.default_rng(n).normal(size=(3, n + 1)))
        p = np.fft.irfft(spectra, 2 * n, axis=-1)[..., :n]
        raw = p / ((n - np.arange(n)) * p[..., :1])
        assert huber_acf(spectra).tobytes() == (raw / raw[..., :1]).tobytes()

    def test_sinusoid_peaks_near_multiples(self):
        t = np.arange(200)
        acf, _ = vanilla_pipeline_acf(np.sin(2 * np.pi * t / 20))
        peaks = find_peaks(acf, 0.5)
        assert len(peaks) == 5
        for peak, expected in zip(peaks, (20, 40, 60, 80, 100)):
            assert abs(peak - expected) <= 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        x = zero_pad(rng.normal(size=64))
        hybrid = unit_spectrum(x, robust=False)
        p_bar = full_range_periodogram(hybrid, 0)
        base = huber_acf(p_bar)
        scaled = huber_acf(1e7 * p_bar)
        np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_degenerate_zero_spectrum(self):
        # no peak can reach an all-zero curve
        acf = huber_acf(np.zeros(65))
        np.testing.assert_array_equal(acf, np.zeros(64))
        assert find_peaks(acf, 0.5) == []

    def test_usable_range_bound(self):
        # |acf| <= 1 + 1e-6 on the usable range for a full-cycle sinusoid
        # and for white noise (the overlap correction cancels exactly there)
        t = np.arange(200)
        acf, _ = vanilla_pipeline_acf(np.sin(2 * np.pi * t / 20))
        assert np.max(np.abs(acf[: acf.size // 2 + 1])) <= 1.0 + 1e-6
        rng = np.random.default_rng(5)
        acf, _ = vanilla_pipeline_acf(rng.normal(size=400))
        assert np.max(np.abs(acf[: acf.size // 2 + 1])) <= 1.0 + 1e-6

    def test_spectrum_shorter_than_two_bins_rejected(self):
        with pytest.raises(InvalidInputError):
            huber_acf(np.zeros(1))
        with pytest.raises(InvalidInputError):
            huber_acf(np.zeros((4, 1)))
        with pytest.raises(InvalidInputError):
            huber_acf(np.zeros((4, 4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spectrum_rejected(self, bad):
        spectra = np.ones((2, 9))
        spectra[1, 4] = bad
        with pytest.raises(InvalidInputError):
            huber_acf(spectra)


def stack_with_zero_row(rng, rows, bins):
    """Random one-sided spectra with DC zeroed and row 1 all zeros."""
    spectra = rng.normal(size=(rows, bins)) ** 2
    spectra[:, 0] = 0.0
    spectra[1] = 0.0
    return spectra


class TestStackedRows:
    """Each row of a stacked call equals the 1-d call on that row, bit for bit."""

    # 2-5 bins give N = 1-4 lags, where size - 2 bounds the peak search
    # before size // 2 does.
    @pytest.mark.parametrize("bins", [2, 3, 4, 5, 6, 9, 65, 501])
    def test_huber_acf_rows(self, bins):
        spectra = stack_with_zero_row(np.random.default_rng(bins), 5, bins)
        stacked = huber_acf(spectra)
        assert stacked.shape == (5, bins - 1)
        for row, spectrum in enumerate(spectra):
            np.testing.assert_array_equal(stacked[row], huber_acf(spectrum))
        np.testing.assert_array_equal(stacked[1], np.zeros(bins - 1))

    def test_negative_total_power_is_degenerate(self):
        spectra = np.zeros((2, 9))
        spectra[0, 3] = -1.0
        spectra[1, 3] = 1.0
        stacked = huber_acf(spectra)
        np.testing.assert_array_equal(stacked[0], np.zeros(8))
        assert stacked[1, 0] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        values=arrays(
            np.float64,
            st.tuples(st.integers(0, 4), st.integers(0, 12)),
            elements=st.one_of(
                st.sampled_from([0.0, 0.5, 0.9]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
        ),
        height=st.floats(0.01, 0.99),
    )
    def test_find_peaks_rows(self, values, height):
        stacked = find_peaks(values, height)
        assert stacked == [find_peaks(row, height) for row in values]

    @pytest.mark.parametrize("bins", [2, 3, 4, 5, 6, 9, 65, 501])
    def test_find_peaks_rows_of_an_acf_stack(self, bins):
        acf = huber_acf(stack_with_zero_row(np.random.default_rng(bins), 5, bins))
        stacked = find_peaks(acf, 0.1)
        assert stacked == [find_peaks(row, 0.1) for row in acf]
        assert stacked[1] == []


class TestFindPeaks:
    @staticmethod
    def _acf(values):
        """The values followed by as many zero lags, so all of them are searched."""
        values = np.asarray(values, dtype=float)
        return np.concatenate([values, np.zeros(values.size)])

    def test_decreasing_has_no_peaks(self):
        acf = self._acf(np.linspace(1.0, 0.0, 30))
        assert find_peaks(acf, 0.5) == []

    def test_two_clear_peaks(self):
        acf = self._acf([1.0, 0.0, 0.9, 0.0, 0.8, 0.0])
        assert find_peaks(acf, 0.5) == [2, 4]

    def test_plateau_reports_first_index(self):
        acf = self._acf([1.0, 0.0, 0.9, 0.9, 0.0])
        assert find_peaks(acf, 0.5) == [2]

    def test_height_filter(self):
        acf = self._acf([1.0, 0.0, 0.4, 0.0, 0.8, 0.0])
        assert find_peaks(acf, 0.5) == [4]

    def test_parameter_validation(self):
        acf = self._acf([1.0, 0.0, 0.9, 0.0])
        with pytest.raises(InvalidInputError):
            find_peaks(acf, 0.0)
        with pytest.raises(InvalidInputError):
            find_peaks(acf, 1.0)

    def test_list_input(self):
        assert find_peaks([0.1, 0.9, 0.2, 0.1, 0.0], 0.5) == [1]
        assert find_peaks([[0.1, 0.9, 0.2, 0.1, 0.0], [0.0] * 5], 0.5) == [[1], []]

    @pytest.mark.parametrize("acf", [0.5, np.zeros((2, 3, 8))])
    def test_shapes_other_than_a_row_or_stack_rejected(self, acf):
        with pytest.raises(InvalidInputError):
            find_peaks(acf, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        values=arrays(
            np.float64,
            st.integers(0, 40),
            # a few repeated values, so plateaus and ties occur
            elements=st.one_of(
                st.sampled_from([0.0, 0.5, 0.9]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
        ),
        height=st.floats(0.01, 0.99),
    )
    def test_peaks_follow_the_rule_and_are_never_adjacent(self, values, height):
        peaks = find_peaks(values, height)
        v = values
        expected = [
            t
            for t in range(1, min(v.size // 2, v.size - 2) + 1)
            if v[t] > v[t - 1] and v[t] >= v[t + 1] and v[t] >= height
        ]
        assert peaks == expected
        assert all(b - a >= 2 for a, b in zip(peaks, peaks[1:]))


class TestPeriodFromPeaks:
    def test_validated_hand_example(self):
        # bin 10 of 1000: the window is [94.4545..., 106.5555...]
        assert period_from_peaks([100, 200, 300], 10, 1000) == 100.0

    def test_rejected_when_outside_window(self):
        # bin 5 of 1000: the window is [182.33..., 226.0]
        assert period_from_peaks([100, 200, 300], 5, 1000) is None

    @pytest.mark.parametrize(
        "k_star,n,lo,hi",
        [(1, 1000, 749.0, 1001.0), (2, 12, 4.0, 10.0), (3, 12, 2.5, 6.0), (5, 60, 10.0, 14.5)],
    )
    def test_window_ends_are_inclusive(self, k_star, n, lo, hi):
        # [(n/(k+1) + n/k)/2 - 1, (n/k + n/(k-1))/2 + 1], up to n + 1 at k = 1;
        # spacings (floor(m), ceil(m)) have the median m, a multiple of 1/2
        def peaks(m):
            return [0, math.floor(m), round(2 * m)]

        for inside in (lo, hi):
            assert period_from_peaks(peaks(inside), k_star, n) == inside
        for outside in (lo - 0.5, hi + 0.5):
            assert period_from_peaks(peaks(outside), k_star, n) is None

    def test_single_peak_is_insufficient(self):
        assert period_from_peaks([100], 10, 1000) is None
        assert period_from_peaks([], 10, 1000) is None

    def test_even_count_takes_central_mean(self):
        # spacings (99, 100, 102, 103) -> median 101.0
        peaks = [0, 99, 199, 301, 404]
        assert period_from_peaks(peaks, 10, 1000) == pytest.approx(101.0)

    def test_lowest_index_opens_upper_bound(self):
        assert period_from_peaks([100, 900], 1, 1000) == 800.0

    def test_invalid_index(self):
        with pytest.raises(InvalidInputError):
            period_from_peaks([10, 20], 0, 1000)

    @settings(max_examples=300, deadline=None)
    @given(
        peaks=st.lists(st.integers(1, 5000), min_size=2, max_size=12),
        k_star=st.integers(1, 60),
    )
    def test_equals_the_numpy_median(self, peaks, k_star):
        # odd and even spacing counts, repeated lags and unsorted input
        median = float(np.median(np.diff(np.sort(np.asarray(peaks)))))
        lo = (2000 / (k_star + 1) + 2000 / k_star) / 2 - 1
        hi = 2001.0 if k_star == 1 else (2000 / k_star + 2000 / (k_star - 1)) / 2 + 1
        expected = median if lo <= median <= hi else None
        assert period_from_peaks(peaks, k_star, 2000) == expected
        # a window centred on the median accepts it
        n = max(1, round(median)) * k_star
        assert period_from_peaks(peaks, k_star, n) == median


class TestRobustnessToOutlierBursts:
    """Comb-burst contamination: the plain spectrum path loses the true
    autocorrelation peak below the reporting threshold and keeps only
    spurious short-lag structure, while the robustly fit spectrum keeps the
    true peak and strips the contamination's spectral signature."""

    @staticmethod
    def _setup():
        n_series, period = 576, 144
        t = np.arange(n_series)
        rng = np.random.default_rng(5)
        clean = np.sin(2 * np.pi * t / period) + 0.1 * rng.normal(size=n_series)
        contaminated = clean.copy()
        contaminated[200 + 12 * np.arange(8)] += 6.0
        return clean, contaminated

    def _acf_peaks(self, w, robust):
        hybrid = unit_spectrum(zero_pad(w), robust)
        return find_peaks(huber_acf(full_range_periodogram(hybrid, 0)), 0.5)

    def test_plain_path_loses_true_peak_and_gains_short_lag_peaks(self):
        clean, contaminated = self._setup()
        clean_peaks = self._acf_peaks(clean, robust=False)
        assert clean_peaks and all(p >= 20 for p in clean_peaks)
        dirty_peaks = self._acf_peaks(contaminated, robust=False)
        assert any(p < 20 for p in dirty_peaks)
        assert not any(abs(p - q) <= 3 for p in dirty_peaks for q in clean_peaks)

    def test_robust_path_keeps_true_peak(self):
        clean, contaminated = self._setup()
        clean_peaks = self._acf_peaks(clean, robust=False)
        robust_peaks = self._acf_peaks(contaminated, robust=True)
        assert any(abs(p - q) <= 3 for p in robust_peaks for q in clean_peaks)

    def test_robust_spectrum_strips_contamination(self):
        _, contaminated = self._setup()
        x = zero_pad(contaminated)
        plain = unit_spectrum(x, robust=False).power[0]
        fitted = unit_spectrum(x).power[0]
        comb_line = x.size // 12  # burst spacing of 12 samples
        assert fitted[comb_line] < plain[comb_line] / 5.0
        assert 0.8 * plain[8] < fitted[8] < 1.3 * plain[8]
        assert fitted[500:].sum() < plain[500:].sum() / 3.0
