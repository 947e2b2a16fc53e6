"""End-to-end multi-periodicity detection pipeline.

Preprocess, decompose into wavelet levels, rank levels by robust variance
share, then per qualifying level: pad, build the hybrid periodogram, test
spectral significance, and validate the dominant candidate against the
autocorrelation peak structure. Validated periods from different levels
are deduplicated before reporting.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .acf import (
    DEFAULT_PEAK_HEIGHT,
    find_peaks,
    full_range_periodogram,
    huber_acf,
    period_from_peaks,
)
from .modwt import check_family_order, daubechies_filters, max_level, modwt_decompose, rank_levels
from .preprocess import DEFAULT_HP_LAMBDA, preprocess
from .series import InvalidInputError, TimeSeries
from .spectral import DEFAULT_ZETA, HybridPeriodogram, fisher_test, huber_periodogram, zero_pad

MIN_DETECTION_LENGTH = 64

DEFAULT_SHARE_THRESHOLD = 0.05
DEFAULT_FISHER_ALPHA = 1e-10
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
        for name in ("hp_lambda", "share_threshold", "zeta", "fisher_alpha", "acf_height"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvalidInputError(f"{name} must be a real number, got {value!r}")
        if not 0 <= self.hp_lambda < math.inf:
            raise InvalidInputError("hp_lambda must be finite and nonnegative")
        check_family_order(self.wavelet_order)
        if not self.zeta > 0:
            raise InvalidInputError("zeta must be positive")
        if not (0.0 < self.fisher_alpha < 1.0):
            raise InvalidInputError("fisher_alpha must lie in (0, 1)")
        if not (0.0 <= self.share_threshold <= 1.0):
            raise InvalidInputError("share_threshold must lie in [0, 1]")
        if not (0.0 < self.acf_height < 1.0):
            raise InvalidInputError("acf_height must lie in (0, 1)")
        if not isinstance(self.robust_mode, (bool, np.bool_)):
            raise InvalidInputError(f"robust_mode must be a bool, got {self.robust_mode!r}")


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
    level: int,
    cfg: DetectorConfig,
    variance_share: float = 0.0,
) -> PeriodRecord | None:
    """Validate one level's dominant period from its hybrid periodogram.

    Pipeline: g-test (bins 1..N-1 of the half spectrum); insignificant
    levels return None. Otherwise the dominant bin must be corroborated:
    the autocorrelation's qualifying-peak median spacing has to land inside
    the bin's resolution window, and that median is the reported period
    length.
    """
    outcome = fisher_test(hybrid.power, cfg.fisher_alpha)
    if not outcome.significant:
        return None
    acf = huber_acf(full_range_periodogram(hybrid))
    if acf is None:
        return None
    peaks = find_peaks(acf, height=cfg.acf_height)
    period = period_from_peaks(peaks, outcome.k_star, hybrid.n_padded)
    if period is None:
        return None
    return PeriodRecord(
        length=period,
        level=level,
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
    merged = [
        min(cluster, key=lambda r: (-r.variance_share, r.level)) for cluster in clusters
    ]
    merged.sort(key=lambda r: r.length)
    return merged


def robust_period(series: TimeSeries, cfg: DetectorConfig | None = None) -> PeriodReport:
    """Detect every interlaced periodicity in a series.

    Deterministic for a fixed input and configuration. Constant input
    short-circuits to an empty degenerate report. ``robust_mode=False``
    swaps in the plain periodogram everywhere and plain sample variance for
    level ranking, keeping the rest of the procedure identical.
    """
    return _detect(series, cfg or DetectorConfig())[0]


# One examined level: its index and hybrid periodogram.
LevelSpectrum = tuple[int, HybridPeriodogram]


def _detect(
    series: TimeSeries, cfg: DetectorConfig
) -> tuple[PeriodReport, list[LevelSpectrum]]:
    """The whole pipeline, walked once; also returns each examined level's spectrum.

    Levels are examined largest variance first, so the spectra come in
    ranking order. A series that preprocesses to all zeros (degenerate
    input) gives an empty degenerate report and no spectra.
    """
    if series.length < MIN_DETECTION_LENGTH:
        raise InvalidInputError(
            f"detection requires at least {MIN_DETECTION_LENGTH} samples, got {series.length}"
        )
    cleaned = preprocess(series, cfg.hp_lambda)
    if not np.any(cleaned.values):
        return PeriodReport(periods=(), levels_examined=0, degenerate=True, config=cfg), []
    filters = daubechies_filters(cfg.wavelet_order)
    j0 = max_level(series.length, filters.L1)
    decomp = modwt_decompose(cleaned, filters, j0, robust=cfg.robust_mode)
    spectra: list[LevelSpectrum] = []
    found: list[PeriodRecord] = []
    for j in rank_levels(decomp, cfg.share_threshold):
        lev = decomp.level(j)
        # Ranked levels have positive variance, so the padded series is never all zeros.
        hybrid = huber_periodogram(zero_pad(lev.w), j, cfg.zeta, robust=cfg.robust_mode)
        spectra.append((j, hybrid))
        record = detect_level(hybrid, j, cfg, variance_share=lev.share)
        if record is not None:
            found.append(record)
    merged = tuple(merge_periods(found))
    report = PeriodReport(merged, levels_examined=len(spectra), degenerate=False, config=cfg)
    return report, spectra
