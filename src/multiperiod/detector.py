"""End-to-end multi-periodicity detection pipeline.

Preprocess, decompose into wavelet levels and rank them by robust variance
share. The cleaned series is padded and its one spectrum (Huber or plain)
is weighted by each qualifying level's power gain, and each level is
g-tested on its octave of the series' periodogram. The levels that pass
share one autocorrelation pass (one inverse FFT and one peak mask over
their weighted spectra); each level's dominant bin is then validated
against its peak structure. Validated periods from different levels are
deduplicated before reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acf import (
    DEFAULT_PEAK_HEIGHT,
    find_peaks,
    full_range_periodogram,
    huber_acf,
    period_from_peaks,
)
from .modwt import (
    MAX_FAMILY_ORDER,
    daubechies_filters,
    level_gains,
    max_level,
    modwt_decompose,
    rank_levels,
)
from .preprocess import DEFAULT_HP_LAMBDA, preprocess
from .series import InvalidInputError, TimeSeries, check_bool, check_int, check_real
from .spectral import (
    DEFAULT_ZETA,
    FisherOutcome,
    HybridPeriodogram,
    fisher_test,
    huber_periodogram,
    zero_pad,
)

MIN_DETECTION_LENGTH = 64

DEFAULT_SHARE_THRESHOLD = 0.05
DEFAULT_FISHER_ALPHA = 1e-2
# Periods from different levels closer than this (relative) are one period.
MERGE_TOLERANCE = 0.03


@dataclass(frozen=True)
class DetectorConfig:
    """Pipeline settings; defaults mirror the published fixed configuration."""

    hp_lambda: float = DEFAULT_HP_LAMBDA
    wavelet_order: int = 4
    share_threshold: float = DEFAULT_SHARE_THRESHOLD
    zeta: float = DEFAULT_ZETA
    fisher_alpha: float = DEFAULT_FISHER_ALPHA
    acf_height: float = DEFAULT_PEAK_HEIGHT
    robust_mode: bool = True

    def __post_init__(self) -> None:
        check_real("hp_lambda", self.hp_lambda, 0, math.inf, "[)")
        check_int("wavelet_order", self.wavelet_order, 1, MAX_FAMILY_ORDER)
        check_real("share_threshold", self.share_threshold, 0, 1, "[]")
        check_real("zeta", self.zeta, 0, math.inf, "(]")
        check_real("fisher_alpha", self.fisher_alpha, 0, 1)
        check_real("acf_height", self.acf_height, 0, 1)
        check_bool("robust_mode", self.robust_mode)


@dataclass(frozen=True)
class PeriodRecord:
    """One detected period with its per-level evidence."""

    length: float
    level: int
    p_value: float
    variance_share: float


@dataclass(frozen=True)
class PeriodReport:
    periods: tuple[PeriodRecord, ...]
    levels_examined: int
    degenerate: bool
    config: DetectorConfig

    @property
    def period_lengths(self) -> list[float]:
        return [record.length for record in self.periods]


def detect_level(
    hybrid: HybridPeriodogram,
    row: int,
    outcome: FisherOutcome,
    peaks: list[int],
    variance_share: float,
) -> PeriodRecord | None:
    """Validate the dominant period of level ``hybrid.levels[row]``.

    ``outcome`` is the level's g-test and ``peaks`` its ACF's qualifying
    peak lags. An insignificant level returns None. Otherwise the dominant
    bin of the level's weighted spectrum (bins 1..N-1, ties to the lowest)
    must be corroborated: the peaks' median spacing has to land inside the
    bin's resolution window, and that median is the reported period length.
    """
    check_int("row", row, 0, len(hybrid.levels) - 1)
    check_real("variance_share", variance_share, 0, 1, "[]")
    if not outcome.significant:
        return None
    k_star = int(np.argmax(hybrid.power[row, 1:-1])) + 1
    period = period_from_peaks(peaks, k_star, hybrid.n_padded)
    if period is None:
        return None
    return PeriodRecord(
        length=period,
        level=hybrid.levels[row],
        p_value=outcome.p_value,
        variance_share=variance_share,
    )


def merge_periods(records: list[PeriodRecord]) -> list[PeriodRecord]:
    """Collapse near-duplicate lengths across levels, keeping the best-backed.

    Lengths differing by less than ``MERGE_TOLERANCE`` relative (to the larger)
    are chained into one cluster; the record with the largest variance
    share survives (ties: lower level). Output is sorted by length.
    """
    if not records:
        return []
    ordered = sorted(records, key=lambda r: r.length)
    clusters: list[list[PeriodRecord]] = [[ordered[0]]]
    for record in ordered[1:]:
        prev = clusters[-1][-1]
        if abs(record.length - prev.length) < MERGE_TOLERANCE * max(record.length, prev.length):
            clusters[-1].append(record)
        else:
            clusters.append([record])
    return [
        min(cluster, key=lambda r: (-r.variance_share, r.level)) for cluster in clusters
    ]


def robust_period(series: TimeSeries, cfg: DetectorConfig | None = None) -> PeriodReport:
    """Detect every interlaced periodicity in a series.

    Deterministic for a fixed input and configuration. Constant input
    short-circuits to an empty degenerate report. ``robust_mode=False``
    swaps in the plain periodogram everywhere and plain sample variance for
    level ranking, keeping the rest of the procedure identical.
    """
    return _detect(series, cfg or DetectorConfig())[0]


def _detect(
    series: TimeSeries, cfg: DetectorConfig
) -> tuple[PeriodReport, HybridPeriodogram | None]:
    """The whole pipeline, walked once; also returns the examined levels' spectra.

    Levels are examined largest variance first, so row r of the spectra is
    the r-th examined level. A series that preprocesses to all zeros
    (degenerate input), or that has no level to examine, gives no spectra.
    """
    if series.length < MIN_DETECTION_LENGTH:
        raise InvalidInputError(
            f"detection requires at least {MIN_DETECTION_LENGTH} samples, got {series.length}"
        )
    cleaned = preprocess(series, cfg.hp_lambda)
    if not np.any(cleaned.values):
        return PeriodReport(periods=(), levels_examined=0, degenerate=True, config=cfg), None
    filters = daubechies_filters(cfg.wavelet_order)
    j0 = max_level(series.length, filters.L1)
    decomp = modwt_decompose(cleaned, filters, j0, robust=cfg.robust_mode)
    levels = rank_levels(decomp, cfg.share_threshold)
    hybrid = None
    found: list[PeriodRecord] = []
    if levels:
        rows = np.subtract(levels, 1)
        gains = level_gains(filters, 2 * series.length, j0)[rows]
        gains = gains.real * gains.real + gains.imag * gains.imag
        padded = zero_pad(cleaned.values)
        hybrid = huber_periodogram(padded, gains, levels, cfg.zeta, robust=cfg.robust_mode)
        outcomes = [fisher_test(hybrid.spectrum, level, cfg.fisher_alpha) for level in levels]
        passed = [row for row, outcome in enumerate(outcomes) if outcome.significant]
        peaks: dict[int, list[int]] = {}
        if passed:
            spectra = np.stack([full_range_periodogram(hybrid, row) for row in passed])
            peaks = dict(zip(passed, find_peaks(huber_acf(spectra), height=cfg.acf_height)))
        for row, share in enumerate(decomp.share[rows].tolist()):
            record = detect_level(hybrid, row, outcomes[row], peaks.get(row, []), share)
            if record is not None:
                found.append(record)
    merged = tuple(merge_periods(found))
    report = PeriodReport(merged, levels_examined=len(levels), degenerate=False, config=cfg)
    return report, hybrid
