import math

import numpy as np
import pytest

from multiperiod.detector import DetectorConfig
from multiperiod import synthbench
from multiperiod.series import InvalidInputError
from multiperiod.synthbench import (
    SplitMix64,
    SyntheticSpec,
    generate,
    run_benchmark,
    score,
)


class TestSplitMix64:
    def test_known_stream(self):
        # Published SplitMix64 reference outputs for seed 1234567
        rng = SplitMix64(1234567)
        expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
        assert [rng.next_uint64() for _ in range(3)] == expected

    def test_unit_interval(self):
        rng = SplitMix64(9)
        draws = [rng.next_unit() for _ in range(2000)]
        assert all(0.0 < u <= 1.0 for u in draws)

    def test_bounded_draws(self):
        rng = SplitMix64(5)
        draws = [rng.next_below(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_normals_moments(self):
        rng = SplitMix64(17)
        z = rng.normals(20000)
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03


class TestGenerate:
    def test_deterministic(self):
        spec = SyntheticSpec(seed=42)
        np.testing.assert_array_equal(generate(spec).values, generate(spec).values)

    def test_different_seeds_differ(self):
        a = generate(SyntheticSpec(seed=1)).values
        b = generate(SyntheticSpec(seed=2)).values
        assert not np.array_equal(a, b)

    def test_clean_sinusoid_values(self):
        spec = SyntheticSpec(
            periods=(20,),
            length=1000,
            trend_amplitude=0.0,
            noise_variance=0.0,
            outlier_ratio=0.0,
            seed=0,
        )
        series = generate(spec)
        assert series.values[0] == pytest.approx(0.0, abs=1e-12)
        assert series.values[5] == pytest.approx(1.0)  # sin(2*pi*5/20)

    def test_outlier_count_and_distinct_positions(self):
        spec = SyntheticSpec(
            periods=(20,),
            noise_variance=0.0,
            trend_amplitude=0.0,
            outlier_ratio=0.01,
            outlier_amplitude=50.0,
            seed=3,
        )
        clean = generate(
            SyntheticSpec(
                periods=(20,),
                noise_variance=0.0,
                trend_amplitude=0.0,
                outlier_ratio=0.0,
                seed=3,
            )
        )
        dirty = generate(spec)
        hits = np.flatnonzero(dirty.values != clean.values)
        assert hits.size == 10  # floor(0.01 * 1000), all positions distinct
        np.testing.assert_allclose(
            np.abs(dirty.values[hits] - clean.values[hits]), 50.0
        )

    def test_triangle_trend_shape(self):
        spec = SyntheticSpec(
            periods=(20,),
            amplitudes=(0.0,),
            trend_amplitude=10.0,
            noise_variance=0.0,
            outlier_ratio=0.0,
            length=1000,
        )
        values = generate(spec).values
        assert values[0] == pytest.approx(0.0)
        assert values[500] == pytest.approx(10.0)
        assert np.max(values) == pytest.approx(10.0)

    def test_square_and_triangle_waveforms(self):
        base = dict(
            periods=(20,), length=200, trend_amplitude=0.0,
            noise_variance=0.0, outlier_ratio=0.0,
        )
        square = generate(SyntheticSpec(waveform="square", **base)).values
        assert set(np.round(square, 12)) <= {-1.0, 0.0, 1.0}
        tri = generate(SyntheticSpec(waveform="triangle", **base)).values
        assert tri[5] == pytest.approx(1.0)  # quarter period peak
        assert np.max(np.abs(tri)) <= 1.0 + 1e-12

    def test_golden_fixture(self):
        # frozen reproducibility fixture; regenerate by printing these values
        spec = SyntheticSpec(seed=7)
        got = generate(spec).values[:4]
        expected = np.array(
            [0.43164846485509034, 0.5628423704126175, 0.8764164821550016, 1.3525505885272622]
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(periods=(20,), length=10)  # period > length/4
        with pytest.raises(InvalidInputError):
            SyntheticSpec(periods=())
        with pytest.raises(InvalidInputError):
            SyntheticSpec(amplitudes=(1.0,))  # mismatched lengths
        with pytest.raises(InvalidInputError):
            SyntheticSpec(outlier_ratio=1.0)
        with pytest.raises(InvalidInputError):
            SyntheticSpec(waveform="sawtooth")
        with pytest.raises(InvalidInputError):
            SyntheticSpec(noise_variance=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise_variance", math.nan),
            ("noise_variance", math.inf),
            ("trend_amplitude", math.nan),
            ("outlier_amplitude", -math.inf),
            ("amplitudes", (1.0, math.nan, 1.0)),
        ],
    )
    def test_spec_rejects_non_finite(self, field, value):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("periods", (20.5,)),
            ("periods", (20, 50.0)),
            ("length", 1000.5),
            ("seed", 1.5),
        ],
    )
    def test_spec_rejects_non_integers(self, field, value):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(**{field: value})


class TestScore:
    def test_perfect_match(self):
        m = score([20.0, 50.0, 100.0], [20.0, 50.0, 100.0], 0.02)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_partial_recall(self):
        m = score([20.0, 50.0], [20.0, 50.0, 100.0], 0.02)
        assert m.precision == 1.0
        assert m.recall == pytest.approx(2.0 / 3.0)
        assert m.f1 == pytest.approx(0.8)

    def test_tolerance_boundary(self):
        assert score([102.0], [100.0], 0.02).f1 == 1.0  # 102 <= 100 * 1.02
        assert score([102.0], [100.0], 0.0).f1 == 0.0

    def test_exact_self_match(self):
        for values in ([1.5], [3.0, 97.0], []):
            m = score(values, values, 0.0)
            assert m.f1 == 1.0

    def test_one_to_one_matching(self):
        # two detections near one truth: only one may claim it
        m = score([100.0, 101.0], [100.0], 0.02)
        assert m.precision == 0.5
        assert m.recall == 1.0

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -0.01])
    def test_rejects_bad_tolerance(self, tolerance):
        with pytest.raises(InvalidInputError):
            score([40.0], [20.0], tolerance)

    @pytest.mark.parametrize(
        "detected, truth",
        [([20.0], [math.nan]), ([math.nan], [20.0]), ([math.inf], [20.0]),
         ([20.0], [math.inf]), ([20.0], [0.0]), ([20.0], [-20.0]), (["20"], [20.0]),
         ([20.0], [None])],
    )
    def test_rejects_non_finite_values_and_non_positive_truth(self, detected, truth):
        with pytest.raises(InvalidInputError):
            score(detected, truth, 0.02)

    def test_empty_detected_vs_truth(self):
        m = score([], [20.0], 0.02)
        assert m.precision == 1.0 and m.recall == 0.0 and m.f1 == 0.0


class TestRunBenchmark:
    def test_smoke_and_timing(self):
        spec = SyntheticSpec(periods=(20,), length=256, noise_variance=0.01,
                             outlier_ratio=0.0, trend_amplitude=0.0)
        result = run_benchmark(spec, runs=3, tolerance=0.02)
        assert result.runs == 3
        assert result.mean_seconds_per_series > 0.0
        assert 0.0 <= result.metrics.f1 <= 1.0

    def test_rejects_zero_runs(self):
        with pytest.raises(InvalidInputError):
            run_benchmark(SyntheticSpec(), runs=0)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -0.01])
    def test_rejects_bad_tolerance_before_detecting(self, tolerance, monkeypatch):
        def no_detection(*args, **kwargs):
            raise AssertionError("robust_period called before the tolerance check")

        monkeypatch.setattr(synthbench, "robust_period", no_detection)
        with pytest.raises(InvalidInputError):
            run_benchmark(SyntheticSpec(), runs=1, tolerance=tolerance)
