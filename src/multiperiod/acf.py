"""Autocorrelation from the spectrum, peak detection, and period validation.

The half-spectrum is mirrored into a full-range periodogram (with the
Nyquist ordinate filled in directly from the padded samples), inverted to
the autocorrelation, corrected per lag for the shrinking overlap count, and
rescaled so lag 0 is exactly 1. The median spacing of qualifying peaks is
accepted as the period only when it falls inside the resolution window of
the dominant frequency bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import InternalError, InvalidInputError
from .spectral import HybridPeriodogram

DEFAULT_PEAK_HEIGHT = 0.5


@dataclass(frozen=True)
class AcfSeries:
    """Normalized autocorrelation by lag, values[0] == 1.

    ``autocovariance`` is the raw inverse-transform output (for the vanilla
    spectrum it equals the linear autocorrelation sum_n w_n w_{n+t}).
    Lags beyond ``usable_lags`` (half the series) are kept but not searched
    for peaks: the 1/(N-t) correction blows up there.
    """

    values: np.ndarray
    usable_lags: int
    autocovariance: np.ndarray
    degenerate: bool = False


@dataclass(frozen=True)
class ValidationRange:
    """Period window implied by periodogram resolution at frequency index k.

    For a spectrum of n bins over the padded series, the bin k covers
    periods around n/k; the accepted window is
    [ (n/(k+1)+n/k)/2 - 1, (n/k + n/(k-1))/2 + 1 ], with the upper bound
    opened to n+1 for k == 1 where the left neighbor does not exist.
    """

    k: int
    lo: float
    hi: float

    @classmethod
    def from_index(cls, k: int, n: int) -> "ValidationRange":
        if k < 1:
            raise InvalidInputError("frequency index must be >= 1")
        lo = 0.5 * (n / (k + 1) + n / k) - 1.0
        hi = float(n + 1) if k == 1 else 0.5 * (n / k + n / (k - 1)) + 1.0
        return cls(k=k, lo=lo, hi=hi)

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def full_range_periodogram(hybrid: HybridPeriodogram, x: np.ndarray) -> np.ndarray:
    """Extend the half spectrum to all n bins by symmetry.

    Bins 0..N-1 copy the hybrid power, bin N (Nyquist) is
    (sum_k x_{2k} - x_{2k+1})^2 / n computed from the padded samples, and
    bins N+1..n-1 mirror bins N-1..1.
    """
    x = np.asarray(x, dtype=np.float64)
    half = hybrid.power.size
    n = hybrid.n_padded
    if n != 2 * half or x.size != n:
        raise InvalidInputError("padded series does not match the periodogram")
    out = np.empty(n)
    out[:half] = hybrid.power
    out[half] = (x[0::2] - x[1::2]).sum() ** 2 / n
    out[half + 1 :] = hybrid.power[1:][::-1]
    return out


def huber_acf(p_bar: np.ndarray, n_series: int) -> AcfSeries:
    """Autocorrelation of the unpadded series from its full-range spectrum.

    p_t = sum_k p_bar[k] exp(i 2 pi k t / n) is real for the symmetric
    input (residual imaginary mass is asserted away); each lag is divided
    by (N - t) * p_0 to undo the shrinking overlap, then the whole curve is
    rescaled by its lag-0 value so the reported scale starts at exactly 1.
    Nonpositive total power is degenerate and yields a flagged zero series.
    """
    p_bar = np.asarray(p_bar, dtype=np.float64)
    if p_bar.size != 2 * n_series:
        raise InvalidInputError("full-range spectrum must have twice the series length")
    p = np.fft.ifft(p_bar) * p_bar.size
    scale = max(1.0, float(np.max(np.abs(p.real))))
    if np.max(np.abs(p.imag)) > 1e-8 * scale:
        raise InternalError("inverse transform of a symmetric spectrum is not real")
    p = p.real
    lags = np.arange(n_series)
    if p[0] <= 0:
        return AcfSeries(
            values=np.zeros(n_series),
            usable_lags=n_series // 2,
            autocovariance=p[:n_series].copy(),
            degenerate=True,
        )
    raw = p[:n_series] / ((n_series - lags) * p[0])
    return AcfSeries(
        values=raw / raw[0],
        usable_lags=n_series // 2,
        autocovariance=p[:n_series].copy(),
    )


def find_peaks(acf: AcfSeries, height: float = DEFAULT_PEAK_HEIGHT) -> list[int]:
    """Lags of local maxima at or above ``height`` within the usable range.

    A lag t qualifies when values[t] > values[t-1], values[t] >= values[t+1]
    and values[t] >= height, so a flat plateau reports its first lag. No two
    peaks are adjacent: lag t + 1 cannot rise strictly above a peak at t.
    Lag 0 is never a peak.
    """
    if not (0.0 < height < 1.0):
        raise InvalidInputError("height must lie in (0, 1)")
    v = acf.values
    last = min(acf.usable_lags, v.size - 2)
    if last < 1:
        return []
    t = np.arange(1, last + 1)
    is_peak = (v[t] > v[t - 1]) & (v[t] >= v[t + 1]) & (v[t] >= height)
    return t[is_peak].tolist()


def period_from_peaks(peaks: list[int], k_star: int, n: int) -> float | None:
    """Median peak spacing, accepted only inside the resolution window.

    Needs at least two peaks; the median of consecutive spacings (mean of
    the central pair for an even count) is returned iff it lies in
    ValidationRange(k_star, n), else None. ``n`` is the length whose ratio
    to k_star approximates the candidate period (the padded length when
    k_star indexes the padded spectrum).
    """
    if k_star < 1:
        raise InvalidInputError("frequency index must be >= 1")
    if len(peaks) < 2:
        return None
    spacings = np.diff(np.sort(np.asarray(peaks)))
    median = float(np.median(spacings))
    window = ValidationRange.from_index(k_star, n)
    return median if window.contains(median) else None
