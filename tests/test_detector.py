import math
from dataclasses import replace

import numpy as np
import pytest

from multiperiod.acf import find_peaks, full_range_periodogram, huber_acf
from multiperiod.detector import (
    DetectorConfig,
    PeriodRecord,
    detect_level,
    merge_periods,
    robust_period,
)
from multiperiod.modwt import daubechies_filters, level_gains, modwt_decompose
from multiperiod.preprocess import preprocess
from multiperiod.series import InvalidInputError, TimeSeries
from multiperiod.spectral import fisher_test, huber_periodogram, zero_pad
from multiperiod.synthbench import SCENARIOS, generate


def three_period_level(level, seed=0):
    """The preprocessed mild three-period series and the level's variance share."""
    series = generate(replace(SCENARIOS["mild"], seed=seed))
    cleaned = preprocess(series)
    decomp = modwt_decompose(cleaned, daubechies_filters(4), 7)
    return cleaned.values, decomp.share[level - 1]


def validate_level(x, level, cfg=DetectorConfig(), variance_share=0.0):
    """detect_level on the weighted spectrum, g-test and ACF peaks the pipeline
    builds for one level of the cleaned series ``x``."""
    gain = level_gains(daubechies_filters(cfg.wavelet_order), 2 * x.size, level)[level - 1]
    hybrid = huber_periodogram(
        zero_pad(x), (gain.real**2 + gain.imag**2)[None], [level], cfg.zeta, cfg.robust_mode
    )
    outcome = fisher_test(hybrid.spectrum, level, cfg.fisher_alpha)
    peaks = find_peaks(huber_acf(full_range_periodogram(hybrid, 0)), cfg.acf_height)
    return detect_level(hybrid, 0, outcome, peaks, variance_share)


class TestDetectLevel:
    def test_level6_finds_period_100(self):
        w, share = three_period_level(6)
        record = validate_level(w, 6, DetectorConfig(), share)
        assert record is not None and record.level == 6
        assert abs(record.length - 100.0) <= 2.0
        assert record.p_value < 1e-9

    def test_level5_finds_period_50(self):
        w, share = three_period_level(5)
        record = validate_level(w, 5, DetectorConfig(), share)
        assert record is not None and record.level == 5
        assert abs(record.length - 50.0) <= 1.0

    def test_level4_finds_period_20(self):
        w, share = three_period_level(4)
        record = validate_level(w, 4, DetectorConfig(), share)
        assert record is not None and record.level == 4
        assert abs(record.length - 20.0) <= 0.4

    @pytest.mark.parametrize("seed", range(12))
    def test_white_noise_level_rejected(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=1000)
        assert validate_level(w, 4) is None

    def test_zero_coefficients_rejected(self):
        assert validate_level(np.zeros(512), 4) is None


class TestMergePeriods:
    @staticmethod
    def _rec(length, share, level=4):
        return PeriodRecord(
            length=length,
            level=level,
            p_value=1e-20,
            variance_share=share,
        )

    def test_near_duplicates_keep_larger_share(self):
        merged = merge_periods(
            [self._rec(100.0, 0.4, level=6), self._rec(101.0, 0.1, level=5)]
        )
        assert [r.length for r in merged] == [100.0]
        assert merged[0].level == 6

    def test_distinct_lengths_unchanged(self):
        # they come out by length, whatever the order they came in
        for lengths in ([50.0, 20.0], [200.0, 100.0, 50.0, 20.0]):
            merged = merge_periods([self._rec(length, 0.3) for length in lengths])
            assert [r.length for r in merged] == sorted(lengths)

    def test_empty(self):
        assert merge_periods([]) == []

    def test_chained_cluster_collapses_once(self):
        records = [self._rec(100.0, 0.2), self._rec(102.0, 0.5), self._rec(104.0, 0.1)]
        merged = merge_periods(records)
        assert [r.length for r in merged] == [102.0]


class TestRobustPeriod:
    def test_three_period_mild(self):
        report = robust_period(generate(SCENARIOS["mild"]))
        lengths = sorted(report.period_lengths)
        assert len(lengths) == 3
        for got, want in zip(lengths, (20.0, 50.0, 100.0)):
            assert abs(got - want) <= 0.02 * want

    def test_single_period(self):
        report = robust_period(generate(SCENARIOS["single"]))
        assert len(report.periods) == 1
        assert abs(report.periods[0].length - 100.0) <= 2.0

    def test_white_noise_mostly_empty(self):
        empty = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            report = robust_period(TimeSeries(rng.normal(size=1000)))
            empty += not report.periods
        assert empty >= 19

    def test_deterministic(self):
        series = generate(SCENARIOS["mild"])
        a = robust_period(series)
        b = robust_period(series)
        assert a.period_lengths == b.period_lengths
        assert [r.p_value for r in a.periods] == [r.p_value for r in b.periods]

    @pytest.mark.parametrize("factor", [0.01, 1.0, 1000.0])
    def test_scale_invariance(self, factor):
        series = generate(SCENARIOS["mild"])
        scaled = TimeSeries(series.values * factor)
        report = robust_period(scaled)
        base = robust_period(series)
        assert report.period_lengths == base.period_lengths

    @pytest.mark.parametrize("shift", [37, 211])
    def test_shift_robustness(self, shift):
        series = generate(SCENARIOS["mild"])
        base = robust_period(series).period_lengths
        rolled = robust_period(TimeSeries(np.roll(series.values, shift))).period_lengths
        assert len(base) == len(rolled) == 3
        for got, want in zip(sorted(rolled), sorted(base)):
            assert abs(got - want) <= 0.02 * want

    def test_band_consistency_of_reported_periods(self):
        # every surviving period passed the resolution-window validation,
        # so the padded length over the period must sit next to some bin
        report = robust_period(generate(SCENARIOS["mild"]))
        n_padded = 2 * 1000
        for record in report.periods:
            k_star = n_padded / record.length
            assert k_star >= 1.0
            assert abs(k_star - round(k_star)) < 1.5

    @pytest.mark.parametrize("robust_mode", [True, False])
    def test_period_that_does_not_divide_the_length(self, robust_mode):
        # a level's ACF comes from the padded series' spectrum, so it has no
        # circular wrap: a wrapped level 7 read a sine of period 137 as 142.5
        t = np.arange(1000)
        report = robust_period(
            TimeSeries(np.sin(2 * np.pi * t / 137)), DetectorConfig(robust_mode=robust_mode)
        )
        assert report.period_lengths == [137.5]

    @pytest.mark.parametrize("factor", [1e-300, 1e-320, 1e300])
    def test_extreme_magnitudes_detected(self, factor):
        # the sample variance underflows or overflows at these magnitudes
        t = np.arange(1000)
        y = np.sin(2 * np.pi * t / 20) + np.sin(2 * np.pi * t / 50)
        report = robust_period(TimeSeries(factor * y))
        assert not report.degenerate
        assert report.period_lengths == [20.0, 50.0]

    def test_short_series_rejected(self):
        with pytest.raises(InvalidInputError):
            robust_period(TimeSeries(np.sin(np.arange(32))))

    @pytest.mark.parametrize("n", [64, 200, 1000, 5000])
    @pytest.mark.parametrize("slope, offset", [(1.0, 0.0), (3.0, 7.0), (-2.5, 1e6), (1e-9, 0.0)])
    def test_linear_ramp_is_degenerate(self, n, slope, offset):
        report = robust_period(TimeSeries(slope * np.arange(n, dtype=float) + offset))
        assert report.degenerate
        assert report.periods == ()
        assert report.levels_examined == 0

    def test_ramp_at_unit_lambda_is_degenerate(self):
        report = robust_period(
            TimeSeries(0.001 * np.arange(64.0) + 5), DetectorConfig(hp_lambda=1.0)
        )
        assert report.degenerate
        assert report.periods == ()
        assert report.levels_examined == 0

    @pytest.mark.parametrize("hp_lambda", [1e15, 1e18])
    def test_sine_at_a_huge_lambda_is_detected(self, hp_lambda):
        t = np.arange(1000.0)
        series = TimeSeries(np.sin(2 * np.pi * t / 50))
        report = robust_period(series, DetectorConfig(hp_lambda=hp_lambda))
        assert not report.degenerate
        assert report.period_lengths == [50.0]

    @pytest.mark.parametrize("slope", [0.01, 1.0])
    def test_ramp_plus_sine_detects_the_sine(self, slope):
        t = np.arange(1000.0)
        report = robust_period(TimeSeries(slope * t + np.sin(2 * np.pi * t / 25)))
        assert not report.degenerate
        assert report.period_lengths == pytest.approx([25.0], rel=0.02)

    def test_constant_series_degenerate_report(self):
        report = robust_period(TimeSeries(np.full(256, 3.0)))
        assert report.degenerate
        assert report.periods == ()
        assert report.levels_examined == 0

    def test_no_level_over_the_share_threshold(self):
        # no level holds all the wavelet variance, so none is examined and
        # no periodogram is built
        cfg = DetectorConfig(share_threshold=1.0)
        report = robust_period(generate(SCENARIOS["mild"]), cfg)
        assert not report.degenerate
        assert report.periods == ()
        assert report.levels_examined == 0

    def test_nonrobust_mode_runs(self):
        cfg = DetectorConfig(robust_mode=False)
        report = robust_period(generate(SCENARIOS["mild"]), cfg)
        lengths = sorted(report.period_lengths)
        assert len(lengths) == 3
        for got, want in zip(lengths, (20.0, 50.0, 100.0)):
            assert abs(got - want) <= 0.02 * want

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            DetectorConfig(fisher_alpha=1.5)
        with pytest.raises(InvalidInputError):
            DetectorConfig(acf_height=0.0)
        with pytest.raises(InvalidInputError):
            DetectorConfig(hp_lambda=-1.0)
        with pytest.raises(InvalidInputError):
            DetectorConfig(zeta=0.0)

    @pytest.mark.parametrize("field", ["hp_lambda", "zeta"])
    def test_config_rejects_nan(self, field):
        with pytest.raises(InvalidInputError):
            DetectorConfig(**{field: math.nan})

    @pytest.mark.parametrize("field", ["hp_lambda"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_preprocess_config_rejects_infinities(self, field, value):
        with pytest.raises(InvalidInputError):
            DetectorConfig(**{field: value})

    @pytest.mark.parametrize("order", [0, 11, 2.0, "4", None, True])
    def test_config_rejects_unknown_wavelet_order(self, order):
        with pytest.raises(InvalidInputError):
            DetectorConfig(wavelet_order=order)

    @pytest.mark.parametrize(
        "field, value",
        [("hp_lambda", True), ("zeta", True), ("share_threshold", True),
         ("fisher_alpha", np.True_), ("hp_lambda", "1e6"), ("zeta", None),
         ("acf_height", "0.5"), ("share_threshold", 0.5 + 0j)],
    )
    def test_config_rejects_bool_and_non_real_numbers(self, field, value):
        with pytest.raises(InvalidInputError):
            DetectorConfig(**{field: value})

    @pytest.mark.parametrize("value", ["no", None, 1, 0, 1.0])
    def test_config_rejects_non_bool_robust_mode(self, value):
        with pytest.raises(InvalidInputError):
            DetectorConfig(robust_mode=value)

    def test_config_accepts_numpy_bool_robust_mode(self):
        assert DetectorConfig(robust_mode=np.False_).robust_mode == np.False_
