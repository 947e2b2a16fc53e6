"""Autocorrelation from the spectrum, peak detection, and period validation.

The one-sided spectrum (DC to Nyquist) is inverted to the autocorrelation
with a real inverse FFT, corrected per lag for the shrinking overlap count,
and rescaled so lag 0 is exactly 1. ``huber_acf`` and ``find_peaks`` take
one row or a stack of rows, so every level of a series is inverted by one
FFT and searched with one mask. The median spacing of qualifying peaks is
accepted as the period only when it falls inside the resolution window of
the dominant frequency bin.
"""

from __future__ import annotations

import statistics

import numpy as np

from .series import InvalidInputError, check_int, check_real, finite_array
from .spectral import HybridPeriodogram

DEFAULT_PEAK_HEIGHT = 0.5


def full_range_periodogram(hybrid: HybridPeriodogram, row: int) -> np.ndarray:
    """One row's one-sided spectrum, bins 0..N: a view, not a copy."""
    check_int("row", row, 0, len(hybrid.levels) - 1)
    return hybrid.power[row]


def huber_acf(spectra: np.ndarray) -> np.ndarray:
    """Normalized autocorrelation of each unpadded series from its one-sided spectrum.

    Each row of ``spectra`` (a 1-d row or an (S, N + 1) stack) holds bins
    0..N of a real, even spectrum over n = 2N samples, so
    p_t = sum_k p_k exp(i 2 pi k t / n) is the real inverse FFT of those
    bins (up to a constant factor, which the normalization cancels); one
    inverse FFT covers the stack. Each lag t < N is divided by
    (N - t) * p_0 to undo the shrinking overlap, then the whole curve is
    rescaled by its lag-0 value so it starts at exactly 1. A row with
    nonpositive total power is degenerate and comes back as N zeros, which
    no peak can reach. The result has the input's shape with N lags per row.
    """
    spectra = finite_array("spectra", spectra, (1, 2))
    if spectra.shape[-1] < 2:
        raise InvalidInputError("expected a spectrum or stack of spectra of at least 2 bins")
    n_series = spectra.shape[-1] - 1
    p = np.fft.irfft(spectra, 2 * n_series, axis=-1)[..., :n_series]
    lag0 = p[..., :1]
    live = lag0 > 0
    raw = p / (np.arange(n_series, 0, -1, dtype=np.float64) * np.where(live, lag0, 1.0))
    return np.divide(raw, raw[..., :1], out=np.zeros_like(raw), where=live)


def find_peaks(
    acf: np.ndarray, height: float = DEFAULT_PEAK_HEIGHT
) -> list[int] | list[list[int]]:
    """Lags of local maxima at or above ``height`` up to lag ``size // 2``.

    ``acf`` is one curve of ``size`` lags, or an (S, size) stack searched
    with one mask, giving one lag list per row. Lags beyond half the series
    are not searched: the 1/(N-t) overlap correction blows up there. A lag
    t qualifies when acf[t] > acf[t-1], acf[t] >= acf[t+1] and
    acf[t] >= height, so a flat plateau reports its first lag. No two peaks
    are adjacent: lag t + 1 cannot rise strictly above a peak at t. Lag 0
    is never a peak.
    """
    check_real("height", height, 0, 1)
    acf = finite_array("acf", acf, (1, 2))
    size = acf.shape[-1]
    last = min(size // 2, size - 2)
    mid = acf[..., 1 : last + 1]
    is_peak = (mid > acf[..., :last]) & (mid >= acf[..., 2 : last + 2]) & (mid >= height)
    lags = [(np.flatnonzero(row) + 1).tolist() for row in np.atleast_2d(is_peak)]
    return lags[0] if acf.ndim == 1 else lags


def period_from_peaks(peaks: list[int], k_star: int, n: int) -> float | None:
    """Median peak spacing, accepted only inside the resolution window.

    Needs at least two peaks; the median of consecutive spacings (mean of
    the central pair for an even count) is returned iff it lies in the
    window of bin k_star, else None. ``n`` is the length whose ratio to
    k_star approximates the candidate period (the padded length when k_star
    indexes the padded spectrum). Bin k covers periods around n/k, so the
    window is [(n/(k+1) + n/k)/2 - 1, (n/k + n/(k-1))/2 + 1], its upper end
    opened to n + 1 for k = 1, where the left neighbor does not exist.
    """
    check_int("k_star", k_star, 1)
    check_int("n", n, 1)
    finite_array("peaks", peaks, integer=True)
    if len(peaks) < 2:
        return None
    peaks = sorted(peaks)
    median = float(statistics.median(b - a for a, b in zip(peaks, peaks[1:])))
    lo = 0.5 * (n / (k_star + 1) + n / k_star) - 1.0
    hi = float(n + 1) if k_star == 1 else 0.5 * (n / k_star + n / (k_star - 1)) + 1.0
    return median if lo <= median <= hi else None
