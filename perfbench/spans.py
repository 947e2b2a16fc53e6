"""In-memory spans around the detector's calls, recorded from outside it.

``robust_period`` looks up each pipeline step in ``multiperiod.detector``'s
module globals at call time, so replacing those names with timing wrappers
(in this process only) traces the real, unchanged pipeline. Every span has a
name, start, end, parent and series id; spans stay in memory until the run
ends. Small counts taken from each call's result ride on its span, so ratios
are measured where the work happens.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

# The names robust_period resolves in multiperiod.detector, itself included.
TRACED_NAMES = (
    "robust_period",
    "preprocess",
    "modwt_decompose",
    "rank_levels",
    "detect_level",
    "zero_pad",
    "huber_periodogram",
    "fisher_test",
    "full_range_periodogram",
    "huber_acf",
    "find_peaks",
    "period_from_peaks",
    "merge_periods",
)

# Busy time of a layer is the summed duration of its spans.
LAYER_SPANS = {
    "preprocess.busy_s": ("preprocess",),
    "modwt.busy_s": ("modwt_decompose", "rank_levels"),
    "acf.busy_s": ("full_range_periodogram", "huber_acf", "find_peaks", "period_from_peaks"),
    "spectral.fisher_busy_s": ("fisher_test",),
    "spectral.periodogram_busy_s": ("zero_pad", "huber_periodogram"),
}
# Code of the detector module itself: its spans' time minus their children.
DETECTOR_SPANS = ("robust_period", "detect_level", "merge_periods")


def _periodogram_counts(hybrid) -> dict[str, int]:
    iterations = hybrid.iterations
    if iterations is None:
        return {"bins": 0}
    total = int(iterations.sum())
    return {
        "bins": int(iterations.size),
        "iters": total,
        "iters_max": int(iterations.max()),
        "unconverged": int(iterations.size - hybrid.converged.sum()),
        # Elements each ADMM iteration sweeps: one padded row per bin.
        "elem_iters": total * hybrid.n_padded,
    }


COUNTERS = {
    "huber_periodogram": _periodogram_counts,
    "fisher_test": lambda outcome: {"significant": int(outcome.significant)},
    "detect_level": lambda record: {"accepted": int(record is not None)},
    "robust_period": lambda report: {"levels": report.levels_examined},
}


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index of the enclosing span, -1 for a root
    series: int
    end: float = float("nan")
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; a root span opens a new series id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._series = -1

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._open:
                self._series += 1
            parent = self._open[-1] if self._open else -1
            span = Span(name, self.clock(), parent, self._series)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span.end = self.clock()
            if count is not None:
                span.counts = count(result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def calls(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def rows(self) -> list[list]:
        return [
            [s.name, s.start, s.end, s.parent, s.series, s.counts] for s in self.spans
        ]


@contextmanager
def patched(module, tracer: Tracer):
    """Swap every traced name in ``module`` for a wrapper; restore on exit.

    A name missing from the module raises here, so a refactor that moves a
    pipeline step has to update this list rather than lose its layer.
    """
    saved = {name: getattr(module, name) for name in TRACED_NAMES}
    try:
        for name, fn in saved.items():
            setattr(module, name, tracer.wrap(name, fn, COUNTERS.get(name)))
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, detections: int) -> dict[str, float]:
    """Per-layer figures, per detected series unless a ratio."""
    busy: Counter = Counter()
    own: Counter = Counter()
    totals: Counter = Counter()
    iters_max = 0
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        busy[span.name] += span.duration
        own[span.name] += self_s
        iters_max = max(iters_max, span.counts.get("iters_max", 0))
        totals.update(span.counts)
    calls = tracer.calls()
    metrics = {
        name: sum(busy[s] for s in spans) / detections
        for name, spans in LAYER_SPANS.items()
    }
    bins = totals["bins"]
    periodogram_s = sum(busy[s] for s in LAYER_SPANS["spectral.periodogram_busy_s"])
    metrics.update(
        {
            "detector.self_s": sum(own[s] for s in DETECTOR_SPANS) / detections,
            "spectral.admm_bins": bins / detections,
            "modwt.levels_examined": totals["levels"] / detections,
            "spectral.admm_iters_mean": _ratio(totals["iters"], bins),
            "spectral.admm_iters_max": float(iters_max),
            "spectral.admm_unconverged_frac": _ratio(totals["unconverged"], bins),
            "spectral.admm_ns_per_elem_iter": _ratio(
                periodogram_s * 1e9, totals["elem_iters"]
            ),
            "spectral.fisher_reject_frac": _ratio(
                calls["fisher_test"] - totals["significant"], calls["fisher_test"]
            ),
            "acf.reject_frac": _ratio(
                calls["full_range_periodogram"] - totals["accepted"],
                calls["full_range_periodogram"],
            ),
            "detector.accept_frac": _ratio(totals["accepted"], calls["detect_level"]),
        }
    )
    return metrics
