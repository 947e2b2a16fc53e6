import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multiperiod import modwt
from multiperiod.cache import TABLES
from multiperiod.modwt import (
    MAX_FAMILY_ORDER,
    WaveletDecomposition,
    WaveletFilterPair,
    _smooth_length,
    biweight_midvariance,
    daubechies_filters,
    level_gains,
    level_width,
    max_level,
    modwt_decompose,
    rank_levels,
)
from multiperiod.reductions import center, median
from multiperiod.series import InvalidInputError, TimeSeries

from oracles import circular_filter, daubechies_scaling, level_filters


class TestFilters:
    def test_order4_has_8_taps(self):
        pair = daubechies_filters(4)
        assert pair.L1 == 8
        assert pair.h.size == 8 and pair.g.size == 8

    def test_db2_closed_form(self):
        s3 = math.sqrt(3.0)
        exact = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2.0))
        pair = daubechies_filters(2)
        np.testing.assert_allclose(pair.g * math.sqrt(2.0), exact, atol=1e-12)

    def test_db4_matches_published_values(self):
        published = np.array(
            [
                0.23037781330885523,
                0.7148465705525415,
                0.6308807679295904,
                -0.02798376941698385,
                -0.18703481171888114,
                0.030841381835986965,
                0.032883011666982945,
                -0.010597401784997278,
            ]
        )
        pair = daubechies_filters(4)
        np.testing.assert_allclose(pair.g * math.sqrt(2.0), published, atol=1e-8)

    @pytest.mark.parametrize("order", range(1, MAX_FAMILY_ORDER + 1))
    def test_table_matches_the_spectral_factorization(self, order):
        pair = daubechies_filters(order)
        reference = daubechies_scaling(order)
        assert pair.L1 == reference.size == 2 * order
        np.testing.assert_allclose(pair.g * math.sqrt(2.0), reference, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_filter_identities(self, order):
        pair = daubechies_filters(order)
        assert abs(pair.h.sum()) < 1e-12
        assert abs(pair.g.sum() - 1.0) < 1e-12
        assert abs(np.dot(pair.h, pair.h) - 0.5) < 1e-12
        assert abs(np.dot(pair.g, pair.g) - 0.5) < 1e-12
        assert abs(np.dot(pair.h, pair.g)) < 1e-12

    @pytest.mark.parametrize("order", [0, 11, -3, True, np.True_])
    def test_unsupported_orders(self, order):
        with pytest.raises(InvalidInputError):
            daubechies_filters(order)

    @pytest.mark.parametrize("order", range(1, MAX_FAMILY_ORDER + 1))
    def test_filters_are_built_once_and_read_only(self, order):
        pair = daubechies_filters(order)
        assert daubechies_filters(order) is pair
        assert daubechies_filters(np.int64(order)) is pair
        for taps in (pair.h, pair.g):
            with pytest.raises(ValueError):
                taps[0] = 0.0


class TestMaxLevel:
    def test_hand_examples(self):
        assert max_level(1000, 8) == 7
        assert max_level(8, 8) == 1
        assert max_level(64, 8) == 3

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            max_level(7, 8)


class TestDecomposition:
    def test_energy_preservation(self):
        rng = np.random.default_rng(0)
        pair = daubechies_filters(4)
        for _ in range(20):
            n = int(rng.integers(64, 600))
            y = rng.normal(size=n)
            j0 = max_level(n, pair.L1)
            dec = modwt_decompose(TimeSeries(y), pair, j0)
            scaling = circular_filter(y, level_filters(pair, j0)[1])
            total = sum(np.dot(w, w) for w in dec.w) + np.dot(scaling, scaling)
            assert abs(total - np.dot(y, y)) <= 1e-8 * np.dot(y, y)

    def test_constant_series_has_zero_wavelet_coefficients(self):
        pair = daubechies_filters(4)
        dec = modwt_decompose(TimeSeries(np.full(128, 3.7)), pair, 3)
        for w in dec.w:
            assert np.max(np.abs(w)) < 1e-12

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=32)
        pair = daubechies_filters(4)
        dec = modwt_decompose(TimeSeries(y), pair, 2)
        for j in (1, 2):
            h_j, _ = level_filters(pair, j)
            assert h_j.size == level_width(j, pair.L1)
            np.testing.assert_allclose(dec.w[j - 1], circular_filter(y, h_j), atol=1e-10)

    def test_shift_covariance(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=128)
        pair = daubechies_filters(4)
        shift = 17
        dec = modwt_decompose(TimeSeries(y), pair, 3)
        dec_shifted = modwt_decompose(TimeSeries(np.roll(y, shift)), pair, 3)
        for j in (1, 2, 3):
            np.testing.assert_allclose(
                dec_shifted.w[j - 1], np.roll(dec.w[j - 1], shift), atol=1e-10
            )

    def test_depth_beyond_max_is_rejected(self):
        pair = daubechies_filters(4)
        with pytest.raises(InvalidInputError):
            modwt_decompose(TimeSeries(np.ones(64)), pair, 4)


class TestBiweightMidvariance:
    def test_equal_values_give_zero(self):
        assert biweight_midvariance(np.full(50, 2.0), 1) == 0.0

    def test_normal_consistency(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=10000)
        assert 0.9 <= biweight_midvariance(w, 1) <= 1.1

    def test_contamination_resistance(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=10000)
        idx = rng.choice(10000, size=1000, replace=False)
        w[idx] = 100.0 * rng.choice([-1.0, 1.0], size=1000)
        assert 0.5 <= biweight_midvariance(w, 1) <= 2.0
        assert np.var(w, ddof=1) > 500.0

    def test_shift_invariance_and_quadratic_scaling(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=500)
        base = biweight_midvariance(w, 8)
        assert abs(biweight_midvariance(w + 11.0, 8) - base) <= 1e-10 * base
        assert abs(biweight_midvariance(3.0 * w, 8) - 9.0 * base) <= 1e-10 * (9.0 * base)

    def test_boundary_exclusion_changes_window(self):
        w = np.zeros(40)
        w[:9] = 100.0  # boundary-only garbage, excluded for width 10
        assert biweight_midvariance(w, 10) == 0.0

    def test_too_few_coefficients(self):
        with pytest.raises(InvalidInputError):
            biweight_midvariance(np.ones(10), 8)

    @pytest.mark.parametrize("width", [0, -5, True, np.True_, 2.5, 3.0, "3", None])
    def test_width_must_be_a_positive_integer(self, width):
        with pytest.raises(InvalidInputError):
            biweight_midvariance(np.arange(20.0), width)

    def test_numpy_integer_width_is_accepted(self):
        w = np.random.default_rng(6).normal(size=50)
        assert biweight_midvariance(w, np.int64(3)) == biweight_midvariance(w, 3)


class TestPlainReductions:
    """The hand-written median and sample variance equal numpy's bit for bit."""

    values = arrays(
        np.float64,
        st.integers(4, 60),  # odd and even lengths
        # repeated values, so ties and a zero spread occur
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, -1.5, 2.0]),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
    )

    @settings(max_examples=300, deadline=None)
    @given(values=values)
    def test_partition_median(self, values):
        expected = np.median(values)
        kept = values.copy()
        got = median(values)
        assert got == expected
        assert np.signbit(got) == np.signbit(expected)  # a zero median is +0.0
        # the values are only reordered
        np.testing.assert_array_equal(np.sort(values), np.sort(kept))

    @settings(max_examples=300, deadline=None)
    @given(values=values)
    def test_sample_variance(self, values):
        assert center(values, 1)[2] == np.var(values, ddof=1)


def is_smooth(m):
    """True when m has no prime factor above 7."""
    for prime in (2, 3, 5, 7):
        while m % prime == 0:
            m //= prime
    return m == 1


class TestLevelGains:
    @pytest.mark.parametrize("order", range(1, MAX_FAMILY_ORDER + 1))
    def test_equals_the_modulo_index_definition(self, order):
        pair = daubechies_filters(order)
        rng = np.random.default_rng(order)
        j_deep = max_level(512, pair.L1)
        # a prime, a fold over more than two blocks (m = 945 > 2n at order 4),
        # a 7-smooth length and exactly the deepest level's filter width
        for n in (257, 469, 512, level_width(j_deep, pair.L1)):
            x = rng.normal(size=n)
            tol = 1e-12 * np.linalg.norm(x)
            deepest = max_level(n, pair.L1)
            wavelet = {}
            for j in range(1, deepest + 1):
                h_j, _ = level_filters(pair, j)
                block = x[(np.arange(n)[:, None] - np.arange(h_j.size)[None, :]) % n]
                wavelet[j] = block @ h_j
            for j0 in range(1, deepest + 1):
                dec = modwt_decompose(TimeSeries(x), pair, j0)
                for j in range(1, j0 + 1):
                    np.testing.assert_allclose(dec.w[j - 1], wavelet[j], rtol=0, atol=tol)

    @pytest.mark.parametrize("order", range(1, MAX_FAMILY_ORDER + 1))
    def test_gains_preserve_energy_at_every_frequency(self, order):
        pair = daubechies_filters(order)
        for n in (512, 1000, 2018):  # any length, 7-smooth or not
            j0 = max_level(n, pair.L1)
            gains = level_gains(pair, n, j0)
            assert gains.shape == (j0, n // 2 + 1)
            # with level j0's scaling gain |G_j0(k)|^2 = prod_{l<j0} |G(2^l k)|^2
            k, g = np.arange(n // 2 + 1), np.abs(np.fft.fft(pair.g, n)) ** 2
            scaling = np.prod([g[(k << l) % n] for l in range(j0)], axis=0)
            energy = np.sum(gains.real**2 + gains.imag**2, axis=0) + scaling
            np.testing.assert_allclose(energy, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,m", [(1000, 1000), (4096, 4096), (469, 945), (1009, 1920)])
    def test_transform_length(self, n, m, monkeypatch):
        pair, lengths = daubechies_filters(4), []

        def recorded(filters, length, j0):
            lengths.append(length)
            return level_gains(filters, length, j0)

        monkeypatch.setattr(modwt, "level_gains", recorded)
        j0 = max_level(n, pair.L1)
        modwt_decompose(TimeSeries(np.ones(n)), pair, j0)
        assert lengths == [m]
        if m != n:
            assert m == _smooth_length(n + level_width(j0, pair.L1) - 1)

    def test_table_is_read_only_and_the_cache_bounded(self):
        pair = daubechies_filters(4)
        gains = level_gains(pair, 1000, 7)
        assert level_gains(pair, 1000, 7) is gains
        with pytest.raises(ValueError):
            gains[0, 0] = 0.0
        for n in range(64, 80):
            level_gains(pair, n, 1)
        assert TABLES.nbytes <= TABLES.budget

    def test_a_cached_table_is_not_served_for_a_bool(self):
        pair = daubechies_filters(2)
        level_gains(pair, 1, 1)
        for args in ((True, 1), (np.True_, 1), (512, True)):
            with pytest.raises(InvalidInputError):
                level_gains(pair, *args)

    def test_complex_product_is_written_in_real_arithmetic(self):
        # the same value as numpy's complex product up to its rounding, and
        # bit for bit the real formula, whatever SIMD kernels numpy picks
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 50)) + 1j * rng.normal(size=(3, 50))
        b = rng.normal(size=50) + 1j * rng.normal(size=50)
        got = modwt._product(a, b)
        np.testing.assert_allclose(got, a * b, rtol=1e-15, atol=1e-15)
        np.testing.assert_array_equal(got.real, a.real * b.real - a.imag * b.imag)
        np.testing.assert_array_equal(got.imag, a.real * b.imag + a.imag * b.real)

    def test_cache_is_keyed_on_the_pair_not_its_width(self):
        # time-reversed taps are another valid pair with the same L1
        pair = daubechies_filters(4)
        reversed_pair = WaveletFilterPair(h=pair.h[::-1], g=pair.g[::-1], L1=pair.L1)
        assert reversed_pair != pair
        x = np.random.default_rng(8).normal(size=256)
        dec = modwt_decompose(TimeSeries(x), pair, 3)
        dec_reversed = modwt_decompose(TimeSeries(x), reversed_pair, 3)
        expected = x[(np.arange(256)[:, None] - np.arange(8)[None, :]) % 256] @ reversed_pair.h
        np.testing.assert_allclose(dec_reversed.w[0], expected, rtol=0, atol=1e-12 * 16)
        assert np.max(np.abs(dec_reversed.w[0] - dec.w[0])) > 0.1

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 10**6))
    def test_smooth_length_is_the_next_7_smooth_length(self, m):
        smooth = _smooth_length(m)
        assert smooth >= m and is_smooth(smooth)
        assert not any(is_smooth(k) for k in range(m, smooth))


class TestRanking:
    @pytest.mark.parametrize("period,level", [(20, 4), (50, 5), (100, 6)])
    def test_sinusoid_lands_in_its_octave(self, period, level):
        # period in [2^j, 2^(j+1)] concentrates variance at level j
        t = np.arange(1000, dtype=float)
        pair = daubechies_filters(4)
        dec = modwt_decompose(TimeSeries(np.sin(2 * np.pi * t / period)), pair, 7)
        assert np.argmax(dec.variance) + 1 == level

    def test_three_period_mixture_ranks_its_levels_first(self):
        t = np.arange(1000, dtype=float)
        y = sum(np.sin(2 * np.pi * t / p) for p in (20, 50, 100))
        pair = daubechies_filters(4)
        dec = modwt_decompose(TimeSeries(y), pair, 7)
        ranked = rank_levels(dec, 0.05)
        assert set(ranked[:3]) == {4, 5, 6}
        assert {4, 5, 6}.issubset(set(ranked))

    def test_single_sinusoid_ranked_first(self):
        t = np.arange(1000, dtype=float)
        pair = daubechies_filters(4)
        dec = modwt_decompose(TimeSeries(np.sin(2 * np.pi * t / 100)), pair, 7)
        ranked = rank_levels(dec, 0.05)
        assert ranked[0] == 6

    def test_zero_variance_gives_empty_ranking(self):
        pair = daubechies_filters(4)
        dec = modwt_decompose(TimeSeries(np.full(256, 1.0)), pair, 4)
        assert rank_levels(dec, 0.05) == []

    def test_threshold_filters_small_shares(self):
        t = np.arange(1000, dtype=float)
        pair = daubechies_filters(4)
        dec = modwt_decompose(TimeSeries(np.sin(2 * np.pi * t / 100)), pair, 7)
        assert rank_levels(dec, 0.5) == [6]
        assert rank_levels(dec, 0.99) == []

    def test_ties_rank_the_lower_level_first(self):
        # NaN, zero and below-threshold variances are never ranked
        variance = np.array([1.0, 2.0, 1.0, np.nan, 0.0, 2.0])
        share = np.array([1.0, 2.0, 1.0, 0.0, 0.0, 2.0]) / 6.0
        dec = WaveletDecomposition(np.zeros((6, 8)), variance, share)
        assert rank_levels(dec, 0.0) == [2, 6, 1, 3]
        assert rank_levels(dec, 0.2) == [2, 6]

    def test_level_with_too_few_nonboundary_coefficients_is_not_ranked(self):
        # at n = 50 the level-3 filter is 50 taps wide: one nonboundary coefficient
        pair = daubechies_filters(4)
        dec = modwt_decompose(TimeSeries(np.random.default_rng(7).normal(size=50)), pair, 3)
        assert dec.w.shape == (3, 50)
        assert np.isnan(dec.variance[2]) and dec.share[2] == 0.0
        assert dec.share[:2].sum() == pytest.approx(1.0)
        assert 3 not in rank_levels(dec, 0.0)

    def test_shares_sum_to_at_most_one(self):
        rng = np.random.default_rng(6)
        pair = daubechies_filters(4)
        dec = modwt_decompose(TimeSeries(rng.normal(size=512)), pair, 5)
        assert sum(dec.share) <= 1.0 + 1e-12
