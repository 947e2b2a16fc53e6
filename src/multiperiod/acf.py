"""Autocorrelation from the spectrum, peak detection, and period validation.

The half-spectrum plus its Nyquist ordinate (DC to Nyquist) is inverted to
the autocorrelation with a real inverse FFT, corrected per lag for the
shrinking overlap count, and rescaled so lag 0 is exactly 1. The median
spacing of qualifying peaks is accepted as the period only when it falls
inside the resolution window of the dominant frequency bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import InvalidInputError
from .spectral import HybridPeriodogram

DEFAULT_PEAK_HEIGHT = 0.5


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


def full_range_periodogram(hybrid: HybridPeriodogram) -> np.ndarray:
    """The one-sided spectrum: bins 0..N, the half-spectrum power then the Nyquist ordinate."""
    return np.append(hybrid.power, hybrid.nyquist)


def huber_acf(spectrum: np.ndarray) -> np.ndarray | None:
    """Normalized autocorrelation of the unpadded series from its one-sided spectrum.

    ``spectrum`` holds bins 0..N of a real, even spectrum over n = 2N
    samples, so p_t = sum_k p_k exp(i 2 pi k t / n) is the real inverse FFT
    of those bins (up to a constant factor, which the normalization
    cancels). Each lag t < N is divided by (N - t) * p_0 to undo the
    shrinking overlap, then the whole curve is rescaled by its lag-0 value
    so it starts at exactly 1. Nonpositive total power is degenerate and
    yields None.
    """
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.ndim != 1 or spectrum.size < 2:
        raise InvalidInputError("expected a 1-d spectrum of at least 2 bins (DC to Nyquist)")
    n_series = spectrum.size - 1
    p = np.fft.irfft(spectrum, 2 * n_series)
    if p[0] <= 0:
        return None
    raw = p[:n_series] / ((n_series - np.arange(n_series)) * p[0])
    return raw / raw[0]


def find_peaks(acf: np.ndarray, height: float = DEFAULT_PEAK_HEIGHT) -> list[int]:
    """Lags of local maxima at or above ``height`` up to lag ``acf.size // 2``.

    Lags beyond half the series are not searched: the 1/(N-t) overlap
    correction blows up there. A lag t qualifies when acf[t] > acf[t-1],
    acf[t] >= acf[t+1] and acf[t] >= height, so a flat plateau reports its
    first lag. No two peaks are adjacent: lag t + 1 cannot rise strictly
    above a peak at t. Lag 0 is never a peak.
    """
    if not (0.0 < height < 1.0):
        raise InvalidInputError("height must lie in (0, 1)")
    last = min(acf.size // 2, acf.size - 2)
    if last < 1:
        return []
    t = np.arange(1, last + 1)
    is_peak = (acf[t] > acf[t - 1]) & (acf[t] >= acf[t + 1]) & (acf[t] >= height)
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
