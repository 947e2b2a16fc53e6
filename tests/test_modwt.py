import math

import numpy as np
import pytest

from multiperiod.modwt import (
    biweight_midvariance,
    daubechies_filters,
    level_width,
    max_level,
    modwt_decompose,
    rank_levels,
)
from multiperiod.series import InvalidInputError, TimeSeries


def upsampled_level_filters(pair, j):
    """Equivalent level-j filters by explicit filter cascading (oracle)."""
    h1 = pair.h
    g1 = pair.g

    def upsample(f, factor):
        out = np.zeros(factor * (f.size - 1) + 1)
        out[::factor] = f
        return out

    g_cascade = np.array([1.0])
    for i in range(j - 1):
        g_cascade = np.convolve(g_cascade, upsample(g1, 2**i))
    h_j = np.convolve(g_cascade, upsample(h1, 2 ** (j - 1)))
    g_j = np.convolve(g_cascade, upsample(g1, 2 ** (j - 1)))
    return h_j, g_j


def direct_modwt_level(y, filt):
    """Brute-force circular convolution w[t] = sum_l f[l] y[(t-l) mod n]."""
    n = y.size
    out = np.zeros(n)
    for t in range(n):
        for l, c in enumerate(filt):
            out[t] += c * y[(t - l) % n]
    return out


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

    def test_filters_are_built_once_and_read_only(self):
        pair = daubechies_filters(4)
        assert daubechies_filters(4) is pair
        assert daubechies_filters(np.int64(4)) is pair
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
            total = sum(np.dot(lev.w, lev.w) for lev in dec.levels)
            total += np.dot(dec.scaling, dec.scaling)
            assert abs(total - np.dot(y, y)) <= 1e-8 * np.dot(y, y)

    def test_constant_series_has_zero_wavelet_coefficients(self):
        pair = daubechies_filters(4)
        dec = modwt_decompose(TimeSeries(np.full(128, 3.7)), pair, 3)
        for lev in dec.levels:
            assert np.max(np.abs(lev.w)) < 1e-12

    def test_pyramid_matches_direct_convolution(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=32)
        pair = daubechies_filters(4)
        dec = modwt_decompose(TimeSeries(y), pair, 2)
        for j in (1, 2):
            h_j, g_j = upsampled_level_filters(pair, j)
            assert h_j.size == level_width(j, pair.L1)
            expected = direct_modwt_level(y, h_j)
            np.testing.assert_allclose(dec.level(j).w, expected, atol=1e-10)
        _, g_2 = upsampled_level_filters(pair, 2)
        np.testing.assert_allclose(dec.scaling, direct_modwt_level(y, g_2), atol=1e-10)

    def test_shift_covariance(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=128)
        pair = daubechies_filters(4)
        shift = 17
        dec = modwt_decompose(TimeSeries(y), pair, 3)
        dec_shifted = modwt_decompose(TimeSeries(np.roll(y, shift)), pair, 3)
        for j in (1, 2, 3):
            np.testing.assert_allclose(
                dec_shifted.level(j).w, np.roll(dec.level(j).w, shift), atol=1e-10
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


class TestRanking:
    @pytest.mark.parametrize("period,level", [(20, 4), (50, 5), (100, 6)])
    def test_sinusoid_lands_in_its_octave(self, period, level):
        # period in [2^j, 2^(j+1)] concentrates variance at level j
        t = np.arange(1000, dtype=float)
        pair = daubechies_filters(4)
        dec = modwt_decompose(TimeSeries(np.sin(2 * np.pi * t / period)), pair, 7)
        variances = {lev.j: lev.variance for lev in dec.levels}
        assert max(variances, key=variances.get) == level

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

    def test_shares_sum_to_at_most_one(self):
        rng = np.random.default_rng(6)
        pair = daubechies_filters(4)
        dec = modwt_decompose(TimeSeries(rng.normal(size=512)), pair, 5)
        assert sum(lev.share for lev in dec.levels) <= 1.0 + 1e-12
