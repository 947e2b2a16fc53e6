"""Span nesting, self-time arithmetic and per-layer ratios on a fake clock."""

import types

import pytest

from perfbench import spans


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_nesting_and_self_time():
    tracer = spans.Tracer(clock=fake_clock(0, 1, 3, 4, 6, 10, 20, 25))
    leaf = tracer.wrap("leaf", lambda: None)

    def body():
        leaf()
        leaf()

    outer = tracer.wrap("outer", body)
    outer()
    outer_again = tracer.wrap("outer", lambda: None)
    outer_again()

    names = [(s.name, s.start, s.end, s.parent, s.series) for s in tracer.spans]
    assert names == [
        ("outer", 0, 10, -1, 0),
        ("leaf", 1, 3, 0, 0),
        ("leaf", 4, 6, 0, 0),
        ("outer", 20, 25, -1, 1),
    ]
    assert tracer.self_times() == [6, 2, 2, 5]
    assert tracer.calls() == {"outer": 2, "leaf": 2}


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer(clock=fake_clock(0, 2, 5, 7))

    def boom():
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    tracer.wrap("after", lambda: None)()
    assert [(s.start, s.end, s.parent, s.series) for s in tracer.spans] == [
        (0, 2, -1, 0),
        (5, 7, -1, 1),
    ]


def test_counter_reads_the_result():
    tracer = spans.Tracer(clock=fake_clock(0, 1))
    assert tracer.wrap("f", lambda: 41, lambda r: {"n": r + 1})() == 41
    assert tracer.spans[0].counts == {"n": 42}


def test_patched_restores_and_requires_every_name():
    module = types.SimpleNamespace(**{name: (lambda: name) for name in spans.TRACED_NAMES})
    originals = dict(vars(module))
    with spans.patched(module, spans.Tracer()):
        assert all(getattr(module, n) is not originals[n] for n in spans.TRACED_NAMES)
    assert vars(module) == originals

    del module.find_peaks
    with pytest.raises(AttributeError):
        with spans.patched(module, spans.Tracer()):
            pass
    assert vars(module)["detect_level"] is originals["detect_level"]


def test_layer_metrics_arithmetic():
    S = spans.Span
    tracer = spans.Tracer()
    tracer.spans = [
        S("robust_period", 0.0, -1, 0, end=10.0, counts={"levels": 2}),
        S("preprocess", 0.5, 0, 0, end=1.5),
        S("detect_level", 2.0, 0, 0, end=6.0, counts={"accepted": 1}),
        S("zero_pad", 2.0, 2, 0, end=2.5),
        S("huber_periodogram", 2.5, 2, 0,  end=4.5, counts={
            "bins": 4, "iters": 40, "iters_max": 12, "unconverged": 1, "elem_iters": 40 * 8}),
        S("fisher_test", 4.5, 2, 0, end=5.0, counts={"significant": 1}),
        S("full_range_periodogram", 5.0, 2, 0, end=5.5),
        S("detect_level", 6.0, 0, 0, end=8.0, counts={"accepted": 0}),
        S("huber_periodogram", 6.0, 7, 0, end=7.0, counts={
            "bins": 2, "iters": 10, "iters_max": 6, "unconverged": 0, "elem_iters": 10 * 8}),
        S("fisher_test", 7.0, 7, 0, end=7.5, counts={"significant": 0}),
    ]
    m = spans.layer_metrics(tracer, detections=2)
    assert m["preprocess.busy_s"] == pytest.approx(0.5)
    assert m["spectral.periodogram_busy_s"] == pytest.approx(3.5 / 2)
    assert m["spectral.fisher_busy_s"] == pytest.approx(0.5)
    assert m["acf.busy_s"] == pytest.approx(0.25)
    # robust_period 10 - (1 + 4 + 2) = 3, detect_level (4 - 3.5) + (2 - 1.5) = 1
    assert m["detector.self_s"] == pytest.approx(4.0 / 2)
    assert m["spectral.admm_bins"] == 3
    assert m["modwt.levels_examined"] == 1
    assert m["spectral.admm_iters_mean"] == pytest.approx(50 / 6)
    assert m["spectral.admm_iters_max"] == 12
    assert m["spectral.admm_unconverged_frac"] == pytest.approx(1 / 6)
    assert m["spectral.admm_ns_per_elem_iter"] == pytest.approx(3.5e9 / 400)
    assert m["spectral.fisher_reject_frac"] == pytest.approx(0.5)
    assert m["acf.reject_frac"] == 0.0
    assert m["detector.accept_frac"] == pytest.approx(0.5)


def test_layer_metrics_without_admm_work():
    tracer = spans.Tracer(clock=fake_clock(0, 1))
    tracer.wrap("huber_periodogram", lambda: None, lambda r: {"bins": 0})()
    m = spans.layer_metrics(tracer, detections=1)
    assert m["spectral.admm_iters_mean"] == 0.0
    assert m["spectral.admm_ns_per_elem_iter"] == 0.0
