"""Invariants of ``robust_period`` checked over many inputs.

Positive rescaling and a constant offset leave the detected levels and
lengths unchanged on the named scenarios; determinism, the 64-sample
minimum, degenerate constant input and clean completion on awkward finite
inputs are checked as hypothesis properties on series of at most 256
samples.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multiperiod.detector import (
    MIN_DETECTION_LENGTH,
    DetectorConfig,
    PeriodReport,
    robust_period,
)
from multiperiod.series import InvalidInputError, TimeSeries
from multiperiod.synthbench import SCENARIOS, generate

TRANSFORMS = {
    "x1e-6": lambda x: x * 1e-6,
    "x1e12": lambda x: x * 1e12,
    "+1e6": lambda x: x + 1e6,
}

finite = st.floats(allow_nan=False, allow_infinity=False)
lengths = st.integers(MIN_DETECTION_LENGTH, 256)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scale_and_offset_keep_levels_and_lengths(scenario, seed):
    values = generate(replace(SCENARIOS[scenario], seed=seed)).values
    base = robust_period(TimeSeries(values))
    assert base.periods
    for name, transform in TRANSFORMS.items():
        report = robust_period(TimeSeries(transform(values)))
        assert [r.level for r in report.periods] == [r.level for r in base.periods], name
        assert report.period_lengths == pytest.approx(base.period_lengths, rel=1e-9), name


@settings(max_examples=40, deadline=None)
@given(
    values=arrays(np.float64, lengths, elements=st.floats(-1e6, 1e6)),
    robust=st.booleans(),
)
def test_detection_is_deterministic_and_leaves_input_alone(values, robust):
    original = values.copy()
    cfg = DetectorConfig(robust_mode=robust)
    first = robust_period(TimeSeries(values), cfg)
    assert robust_period(TimeSeries(values), cfg) == first
    np.testing.assert_array_equal(values, original)


@settings(max_examples=50, deadline=None)
@given(values=arrays(np.float64, st.integers(1, MIN_DETECTION_LENGTH - 1), elements=finite))
def test_short_series_rejected(values):
    with pytest.raises(InvalidInputError):
        robust_period(TimeSeries(values))


@settings(max_examples=50, deadline=None)
@given(n=lengths, value=finite)
@example(n=300, value=1.7e308)
@example(n=81, value=4.800000000000001)
def test_constant_series_is_degenerate(n, value):
    report = robust_period(TimeSeries(np.full(n, value)))
    assert report.degenerate
    assert report.periods == ()
    assert report.levels_examined == 0


@st.composite
def quantized(draw):
    steps = draw(arrays(np.int8, lengths, elements=st.integers(-3, 3)))
    return steps * draw(st.sampled_from([1e-6, 0.5, 1.0, 1e6]))


@st.composite
def sparse(draw):
    x = np.zeros(draw(lengths))
    index = st.integers(0, x.size - 1)
    spikes = draw(st.dictionaries(index, st.floats(-1e6, 1e6), min_size=1, max_size=8))
    x[list(spikes)] = list(spikes.values())
    return x


@st.composite
def cauchy(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_cauchy(draw(lengths))


@settings(max_examples=60, deadline=None)
@given(values=st.one_of(quantized(), sparse(), cauchy()), robust=st.booleans())
def test_awkward_finite_input_completes(values, robust):
    report = robust_period(TimeSeries(values), DetectorConfig(robust_mode=robust))
    assert isinstance(report, PeriodReport)
