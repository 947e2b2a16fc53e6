"""Deterministic synthetic series generation and benchmark scoring.

The generator is reproducible across platforms and languages: randomness
comes from SplitMix64 (a published 64-bit mixing generator) with Gaussian
variates via Box-Muller and bounded integers via rejection sampling, all
deterministic transforms of the raw 64-bit stream. Draw order per series is
fixed: noise first, then outlier positions, then outlier signs.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .detector import DetectorConfig, robust_period
from .series import InvalidInputError, TimeSeries

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

WAVEFORMS = ("sin", "square", "triangle")


class SplitMix64:
    """Minimal seedable 64-bit generator (Steele, Lea & Flood's SplitMix64)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform on (0, 1] with 53-bit resolution (never 0, log-safe)."""
        return ((self.next_uint64() >> 11) + 1) * 2.0**-53

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        if n <= 0:
            raise InvalidInputError("bound must be positive")
        limit = ((1 << 64) // n) * n
        while True:
            draw = self.next_uint64()
            if draw < limit:
                return draw % n

    def normals(self, count: int) -> np.ndarray:
        """Standard Gaussian draws via Box-Muller on consecutive uniforms."""
        out = np.empty(count)
        for i in range(0, count, 2):
            u1 = self.next_unit()
            u2 = self.next_unit()
            r = math.sqrt(-2.0 * math.log(u1))
            out[i] = r * math.cos(2.0 * math.pi * u2)
            if i + 1 < count:
                out[i + 1] = r * math.sin(2.0 * math.pi * u2)
        return out


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic series; fully determined by ``seed``."""

    waveform: str = "sin"
    periods: tuple[int, ...] = (20, 50, 100)
    amplitudes: tuple[float, ...] | None = None
    length: int = 1000
    trend_amplitude: float = 10.0
    noise_variance: float = 0.1
    outlier_ratio: float = 0.01
    outlier_amplitude: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.waveform not in WAVEFORMS:
            raise InvalidInputError(f"waveform must be one of {WAVEFORMS}")
        if not all(isinstance(v, numbers.Integral) for v in (self.length, self.seed, *self.periods)):
            raise InvalidInputError("length, seed and periods must be integers")
        if self.length < 8:
            raise InvalidInputError("length must be at least 8")
        periods = tuple(int(p) for p in self.periods)
        if not periods:
            raise InvalidInputError("at least one period is required")
        if any(p < 2 for p in periods):
            raise InvalidInputError("periods must be >= 2")
        if any(p > self.length / 4 for p in periods):
            raise InvalidInputError("each period must be <= length/4 (>= 4 cycles)")
        amplitudes = self.amplitudes
        if amplitudes is None:
            amplitudes = tuple(1.0 for _ in periods)
        else:
            amplitudes = tuple(float(a) for a in amplitudes)
        if len(amplitudes) != len(periods):
            raise InvalidInputError("amplitudes must match periods one-to-one")
        magnitudes = (self.noise_variance, self.trend_amplitude, self.outlier_amplitude)
        if not all(math.isfinite(a) for a in magnitudes + amplitudes):
            raise InvalidInputError("amplitudes and noise variance must be finite")
        if self.noise_variance < 0:
            raise InvalidInputError("noise_variance must be nonnegative")
        if not (0.0 <= self.outlier_ratio < 1.0):
            raise InvalidInputError("outlier_ratio must lie in [0, 1)")
        if not (0 <= self.seed <= _MASK64):
            raise InvalidInputError("seed must fit in 64 bits")
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "amplitudes", amplitudes)


def _periodic_wave(waveform: str, t: np.ndarray, period: float) -> np.ndarray:
    phase = 2.0 * np.pi * t / period
    if waveform == "sin":
        return np.sin(phase)
    if waveform == "square":
        return np.sign(np.sin(phase))
    # Unit triangle wave, rising through 0 at t = 0.
    return (2.0 / np.pi) * np.arcsin(np.sin(phase))


def generate(spec: SyntheticSpec) -> TimeSeries:
    """Periodic waves + one rise-fall triangle trend + noise + outliers."""
    n = spec.length
    t = np.arange(n, dtype=np.float64)
    values = np.zeros(n)
    for period, amplitude in zip(spec.periods, spec.amplitudes):
        values += amplitude * _periodic_wave(spec.waveform, t, period)
    if spec.trend_amplitude != 0.0:
        values += spec.trend_amplitude * (1.0 - np.abs(2.0 * t / n - 1.0))

    rng = SplitMix64(spec.seed)
    if spec.noise_variance > 0:
        values += math.sqrt(spec.noise_variance) * rng.normals(n)

    n_outliers = int(spec.outlier_ratio * n)
    if n_outliers:
        # Partial Fisher-Yates: distinct positions, order fixed by the stream.
        pool = list(range(n))
        for i in range(n_outliers):
            j = i + rng.next_below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        for pos in pool[:n_outliers]:
            sign = 1.0 if rng.next_uint64() & 1 else -1.0
            values[pos] += sign * spec.outlier_amplitude

    return TimeSeries(values)


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    matched: tuple[tuple[float, float], ...]
    tolerance: float


def _metrics(
    matched: list[tuple[float, float]], detected: int, truth: int, tolerance: float
) -> Metrics:
    """Precision, recall and F1 of ``matched`` pairs out of the detected and true counts.

    Precision and recall are vacuously 1 when their denominator is zero.
    """
    precision = len(matched) / detected if detected else 1.0
    recall = len(matched) / truth if truth else 1.0
    if precision + recall <= 0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return Metrics(precision, recall, f1, tuple(matched), tolerance)


def _check_tolerance(tolerance: float) -> None:
    if not 0 <= tolerance < math.inf:
        raise InvalidInputError("tolerance must be finite and nonnegative")


def score(detected: list[float], truth: list[float], tolerance: float) -> Metrics:
    """Greedy one-to-one matching within a relative tolerance.

    Detected values (ascending) each claim the nearest unmatched truth
    value with |d - t| <= tolerance * t. Precision and recall are vacuously
    1 when their denominator sets are empty. Detected values must be
    finite, truth values finite and positive.
    """
    _check_tolerance(tolerance)
    if not all(isinstance(d, numbers.Real) and math.isfinite(d) for d in detected):
        raise InvalidInputError("detected values must be finite real numbers")
    if not all(isinstance(t, numbers.Real) and math.isfinite(t) and t > 0 for t in truth):
        raise InvalidInputError("truth values must be finite positive real numbers")
    remaining = list(truth)
    matched: list[tuple[float, float]] = []
    for d in sorted(detected):
        best = None
        for candidate in remaining:
            if abs(d - candidate) <= tolerance * candidate:
                key = (abs(d - candidate), candidate)
                if best is None or key < best[0]:
                    best = (key, candidate)
        if best is not None:
            matched.append((d, best[1]))
            remaining.remove(best[1])
    return _metrics(matched, len(detected), len(truth), tolerance)


@dataclass(frozen=True)
class BenchmarkResult:
    metrics: Metrics
    runs: int
    mean_seconds_per_series: float


def run_benchmark(
    spec: SyntheticSpec,
    runs: int,
    cfg: DetectorConfig | None = None,
    tolerance: float = 0.02,
) -> BenchmarkResult:
    """Detection over seeds 0..runs-1, micro-averaged across all runs.

    Precision is total matches over total detections, recall total matches
    over total truths; timing covers the detection call only.
    """
    if runs < 1:
        raise InvalidInputError("runs must be >= 1")
    _check_tolerance(tolerance)
    if cfg is None:
        cfg = DetectorConfig()
    truth = [float(p) for p in spec.periods]
    total_detected = 0
    pairs: list[tuple[float, float]] = []
    elapsed = 0.0
    for seed in range(runs):
        series = generate(replace(spec, seed=seed))
        start = time.perf_counter()
        report = robust_period(series, cfg)
        elapsed += time.perf_counter() - start
        detected = report.period_lengths
        pairs.extend(score(detected, truth, tolerance).matched)
        total_detected += len(detected)
    metrics = _metrics(pairs, total_detected, runs * len(truth), tolerance)
    return BenchmarkResult(
        metrics=metrics, runs=runs, mean_seconds_per_series=elapsed / runs
    )


SCENARIOS: dict[str, SyntheticSpec] = {
    "mild": SyntheticSpec(noise_variance=0.1, outlier_ratio=0.01),
    "severe": SyntheticSpec(noise_variance=1.0, outlier_ratio=0.1),
    "square": SyntheticSpec(waveform="square", noise_variance=0.1, outlier_ratio=0.01),
    "triangle": SyntheticSpec(
        waveform="triangle", noise_variance=0.1, outlier_ratio=0.01
    ),
    "single": SyntheticSpec(periods=(100,), noise_variance=0.1, outlier_ratio=0.01),
}
