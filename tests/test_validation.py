"""One argument rule for the whole package.

Every documented stage function, ``DetectorConfig``, ``SyntheticSpec``,
``score`` and ``run_benchmark`` raises ``InvalidInputError``, and warns of
nothing, for a bool, string, None, complex or non-finite argument, an
integer argument also for a fractional value, and a flag for anything but a
bool (numpy's included). The checks live in
``multiperiod.series``; no other module tests number types itself.
"""

import math
import pathlib
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import multiperiod
from multiperiod.acf import (
    find_peaks,
    full_range_periodogram,
    huber_acf,
    period_from_peaks,
)
from multiperiod.detector import DetectorConfig, detect_level
from multiperiod.modwt import (
    biweight_midvariance,
    daubechies_filters,
    level_gains,
    modwt_decompose,
    rank_levels,
)
from multiperiod.preprocess import clip_extremes, preprocess
from multiperiod.series import InvalidInputError, TimeSeries
from multiperiod.spectral import (
    fisher_pvalue,
    fisher_test,
    huber_fit,
    huber_periodogram,
    zero_pad,
)
from multiperiod.synthbench import SplitMix64, SyntheticSpec, run_benchmark, score

NOT_REAL = {
    "bool": True,
    "np.bool": np.True_,
    "str": "1",
    "None": None,
    "complex": 1 + 0j,
    "np.complex": np.complex128(1),
}
# a real argument whose interval admits +inf, such as zeta, gets INFINITE_REAL
INFINITE_REAL = {**NOT_REAL, "nan": math.nan, "-inf": -math.inf}
REAL = {**INFINITE_REAL, "inf": math.inf}
INTEGER = {**REAL, "fraction": 2.5}
# truthy or falsy stand-ins for a bool flag
NOT_BOOL = {"str": "no", "int": 1, "zero": 0, "float": 1.0, "None": None, "np.int": np.int64(1)}


def arrays(good, integer=False):
    """Bad stand-ins for the array ``good``: wrong types and non-finite entries."""
    good = np.asarray(good, dtype=np.float64)
    bad = {
        "complex": good + 0j,
        "str": good.astype(str),
        "None": None,
        "ragged": [[1.0, 2.0], [3.0]],
    }
    for label, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)):
        bad[label] = good.copy()
        bad[label].flat[1] = value
    if integer:
        bad["bool"] = good > 0
        bad["fraction"] = good + 0.5
    return bad


def slots():
    """(name, bad values, call) for each argument slot checked."""
    t = np.arange(256.0)
    series = TimeSeries(np.sin(2 * np.pi * t / 16) + 0.01 * t)
    filters = daubechies_filters(2)
    decomp = modwt_decompose(series, filters, 3)
    padded = zero_pad(series.values)
    gains = np.abs(level_gains(filters, 512, 2)[:2]) ** 2
    hybrid = huber_periodogram(padded, gains, [1, 2])
    acf = huber_acf(hybrid.power)
    outcome = fisher_test(hybrid.spectrum, 1, 0.5)
    peaks = [16, 32, 48]
    spec = SyntheticSpec(periods=(16,), length=64)
    return [
        ("TimeSeries.values", arrays(t), TimeSeries),
        ("preprocess.hp_lambda", REAL, lambda v: preprocess(series, v)),
        ("clip_extremes.x", arrays(t), lambda v: clip_extremes(v, 3.0, 0.0)),
        ("clip_extremes.bound", REAL, lambda v: clip_extremes(t, v, 0.0)),
        ("clip_extremes.mad_floor", REAL, lambda v: clip_extremes(t, 3.0, v)),
        ("daubechies_filters.family_order", INTEGER, daubechies_filters),
        ("biweight_midvariance.w", arrays(t), lambda v: biweight_midvariance(v, 4)),
        ("biweight_midvariance.width", INTEGER, lambda v: biweight_midvariance(t, v)),
        ("modwt_decompose.j0", INTEGER, lambda v: modwt_decompose(series, filters, v)),
        ("modwt_decompose.robust", NOT_BOOL, lambda v: modwt_decompose(series, filters, 3, v)),
        ("rank_levels.share_threshold", REAL, lambda v: rank_levels(decomp, v)),
        ("level_gains.m", INTEGER, lambda v: level_gains(filters, v, 2)),
        ("level_gains.j0", INTEGER, lambda v: level_gains(filters, 512, v)),
        ("zero_pad.x", arrays(t), zero_pad),
        ("huber_fit.x", arrays(padded), lambda v: huber_fit(v, [3, 5])),
        ("huber_fit.ks", arrays([3, 5], integer=True), lambda v: huber_fit(padded, v)),
        ("huber_fit.zeta", INFINITE_REAL, lambda v: huber_fit(padded, [3], v)),
        ("huber_periodogram.x", arrays(padded), lambda v: huber_periodogram(v, gains, [1, 2])),
        ("huber_periodogram.gains", arrays(gains), lambda v: huber_periodogram(padded, v, [1, 2])),
        ("huber_periodogram.levels", INTEGER, lambda v: huber_periodogram(padded, gains, [1, v])),
        ("huber_periodogram.zeta", INFINITE_REAL,
         lambda v: huber_periodogram(padded, gains, [1, 2], v)),
        ("huber_periodogram.robust", NOT_BOOL,
         lambda v: huber_periodogram(padded, gains, [1, 2], robust=v)),
        ("fisher_pvalue.g", REAL, lambda v: fisher_pvalue(v, 10)),
        ("fisher_pvalue.m", INTEGER, lambda v: fisher_pvalue(0.5, v)),
        ("fisher_test.spectrum", arrays(hybrid.spectrum), lambda v: fisher_test(v, 1, 0.5)),
        ("fisher_test.level", INTEGER, lambda v: fisher_test(hybrid.spectrum, v, 0.5)),
        ("fisher_test.alpha", REAL, lambda v: fisher_test(hybrid.spectrum, 1, v)),
        ("full_range_periodogram.row", INTEGER, lambda v: full_range_periodogram(hybrid, v)),
        ("huber_acf.spectra", arrays(hybrid.power), huber_acf),
        ("find_peaks.acf", arrays(acf), find_peaks),
        ("find_peaks.height", REAL, lambda v: find_peaks(acf, v)),
        ("period_from_peaks.peaks", arrays(peaks, integer=True),
         lambda v: period_from_peaks(v, 32, 512)),
        ("period_from_peaks.k_star", INTEGER, lambda v: period_from_peaks(peaks, v, 512)),
        ("period_from_peaks.n", INTEGER, lambda v: period_from_peaks(peaks, 32, v)),
        ("detect_level.row", INTEGER, lambda v: detect_level(hybrid, v, outcome, peaks, 0.0)),
        ("detect_level.variance_share", REAL,
         lambda v: detect_level(hybrid, 0, outcome, peaks, v)),
        *[
            (f"DetectorConfig.{field}", values, lambda v, field=field: DetectorConfig(**{field: v}))
            for field, values in (
                ("hp_lambda", REAL), ("wavelet_order", INTEGER), ("share_threshold", REAL),
                ("zeta", INFINITE_REAL), ("fisher_alpha", REAL), ("acf_height", REAL),
            )
        ],
        ("SplitMix64.seed", INTEGER, SplitMix64),
        ("SplitMix64.next_below", INTEGER, lambda v: SplitMix64(1).next_below(v)),
        *[
            (f"SyntheticSpec.{field}", values, lambda v, field=field: SyntheticSpec(**{field: v}))
            for field, values in (
                ("length", INTEGER), ("seed", INTEGER), ("trend_amplitude", REAL),
                ("noise_variance", REAL), ("outlier_ratio", REAL), ("outlier_amplitude", REAL),
            )
        ],
        ("SyntheticSpec.periods", INTEGER, lambda v: SyntheticSpec(periods=(20, v))),
        ("SyntheticSpec.periods sequence", {"None": None, "str": "20", "int": 20},
         lambda v: SyntheticSpec(periods=v)),
        ("SyntheticSpec.amplitudes", REAL, lambda v: SyntheticSpec(amplitudes=(1.0, v, 1.0))),
        ("score.detected", REAL, lambda v: score([v], [20.0], 0.02)),
        ("score.truth", REAL, lambda v: score([20.0], [v], 0.02)),
        ("score.tolerance", REAL, lambda v: score([20.0], [20.0], v)),
        ("run_benchmark.runs", INTEGER, lambda v: run_benchmark(spec, v)),
        ("run_benchmark.tolerance", REAL, lambda v: run_benchmark(spec, 1, tolerance=v)),
    ]


CASES = [
    pytest.param(call, value, id=f"{name}-{label}")
    for name, values, call in slots()
    for label, value in values.items()
]


@pytest.mark.parametrize("call, value", CASES)
def test_bad_argument_raises_invalid_input_without_a_warning(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            call(value)


def test_only_series_checks_number_types():
    package = pathlib.Path(multiperiod.__file__).parent
    offenders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "series.py"
        and re.search(r"numbers\.(Real|Integral)", path.read_text())
    ]
    assert offenders == []


def test_settings_are_stored_as_given():
    # the checks validate without converting, so the config echo is unchanged
    cfg = DetectorConfig(hp_lambda=1000, zeta=np.float32(0.5))
    assert type(cfg.hp_lambda) is int and type(cfg.zeta) is np.float32
    spec = replace(SyntheticSpec(), periods=[np.int64(20)], amplitudes=[2])
    assert spec.periods == (20,) and type(spec.periods[0]) is int
    assert spec.amplitudes == (2.0,) and type(spec.amplitudes[0]) is float
