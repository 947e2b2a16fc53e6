"""Normalization, trend removal, and coarse outlier clipping.

The entry point is :func:`preprocess`, which standardizes a series, removes a
smooth trend estimated by a second-difference-penalized least-squares fit,
and clips gross outliers in median/MAD units. Downstream robust estimation
handles everything this coarse stage leaves behind.

Each step is O(N) and takes no generic numpy reduction: the moments are
one sum and one sum of squared deviations, the trend one LAPACK banded
solve against a Cholesky factor cached per length and smoothing, and the
clip two partition medians.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs

from .reductions import center, median
from .series import InternalError, InvalidInputError, TimeSeries, _real_array

# Smoothing default keeps periods up to ~N/4 of a 1000-point series intact
# (half-power cutoff near period 236) while absorbing slower trend. For much
# longer periods raise hp_lambda; half-power period scales like lambda^(1/4).
DEFAULT_HP_LAMBDA = 1e6
# Detrended values are clipped to this many MAD units about their median.
CLIP_C = 3.0

MIN_PIPELINE_LENGTH = 8


def standardize(series: TimeSeries) -> tuple[TimeSeries, float, float]:
    """Center to mean 0 and scale to unit sample standard deviation.

    Returns ``(standardized, mean, std)`` so the affine map can be inverted.
    A constant input is degenerate: the output is all zeros and the reported
    std is 0.0, which callers use as the degeneracy flag. A varying input
    whose moments under- or overflow is scaled by 1/max|x| first, so
    magnitudes from subnormal to near the float maximum standardize alike.
    """
    x = series.values
    if not x.max() > x.min():
        return TimeSeries(np.zeros_like(x)), float(x[0]), 0.0
    mean, dev, std = _moments(x)
    scale = 1.0
    if not 0.0 < std < math.inf:
        # At extreme magnitudes the sample variance underflows or overflows
        # though the series varies; x / max|x| has representable moments.
        scale = float(np.max(np.abs(x)))
        mean, dev, std = _moments(x / scale)
    return TimeSeries(dev / std), mean * scale, std * scale


def _moments(x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Mean, deviations and sample (ddof=1) std; inf or nan on overflow.

    Bit for bit ``np.mean(x)``, ``x - mean`` and ``np.std(x, ddof=1)``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean, dev, var = center(x, 1)
    return float(mean), dev, math.sqrt(var)


def hp_trend(series: TimeSeries, hp_lambda: float) -> TimeSeries:
    """Smooth trend minimizing (1/2)*sum((y-tau)^2) + lambda*sum((d2 tau)^2).

    The unique minimizer solves the pentadiagonal normal equations
    ``(I + 2*lambda*D'D) tau = y`` with D the second-difference operator;
    the system is symmetric positive definite and solved in O(N) with its
    banded Cholesky factor, which is built once per length and lambda and
    shared by every series of that length. lambda=0 returns the input; as
    lambda -> inf the trend tends to the least-squares line.
    """
    x = series.values
    n = x.size
    if n < 3:
        raise InvalidInputError("trend filtering requires at least 3 samples")
    if isinstance(hp_lambda, bool) or not isinstance(hp_lambda, numbers.Real):
        raise InvalidInputError(f"hp_lambda must be a real number, got {hp_lambda!r}")
    if not 0 <= hp_lambda < math.inf:
        raise InvalidInputError("hp_lambda must be finite and nonnegative")
    if hp_lambda == 0:
        return TimeSeries(x.copy())
    # The LAPACK solve that cho_solve_banded wraps, without its batching.
    trend, info = dpbtrs(_hp_factor(n, float(hp_lambda)), x, lower=0)
    if info != 0:
        raise InternalError(f"banded trend solve failed (LAPACK info {info})")
    return TimeSeries(trend)


@functools.lru_cache(maxsize=8)
def _hp_factor(n: int, hp_lambda: float) -> np.ndarray:
    """Upper banded Cholesky factor of I + 2*lambda*D'D for length n; read-only."""
    # Each of D's n-2 rows (1, -2, 1) adds its outer product to D'D, so the
    # diagonals are sums of (1, 4, 1), (-2, -2) and (1) over the rows.
    rows = np.ones(n - 2)
    # LAPACK upper-banded layout: row 0 = 2nd superdiagonal.
    ab = np.zeros((3, n))
    ab[0, 2:] = 2.0 * hp_lambda * rows
    ab[1, 1:] = 2.0 * hp_lambda * np.convolve(rows, [-2.0, -2.0])
    ab[2, :] = 1.0 + 2.0 * hp_lambda * np.convolve(rows, [1.0, 4.0, 1.0])
    factor = cholesky_banded(ab, lower=False)
    factor.flags.writeable = False
    return factor


def clip_extremes(x: np.ndarray, bound: float, mad_floor: float) -> TimeSeries:
    """Clip in median/MAD units: sign(u)*min(|u|, bound) with u=(x-med)/MAD.

    MAD is the raw median absolute deviation about the median (no normal
    consistency factor). Output values lie in [-bound, bound]. A MAD at or below
    ``mad_floor`` is degenerate (not an error): the output is all zeros.
    ``x`` must be a nonempty finite 1-d sequence, ``bound`` a positive finite
    real and ``mad_floor`` a nonnegative finite real; ``x`` is not modified.
    """
    x = _real_array(x)
    if x.ndim != 1 or x.size == 0:
        raise InvalidInputError("clipping needs a nonempty 1-d sequence")
    if not np.isfinite(x).all():
        raise InvalidInputError("clipping needs finite values")
    if isinstance(bound, bool) or not isinstance(bound, numbers.Real) or not 0 < bound < math.inf:
        raise InvalidInputError(f"bound must be a positive finite real, got {bound!r}")
    if (
        isinstance(mad_floor, bool)
        or not isinstance(mad_floor, numbers.Real)
        or not 0 <= mad_floor < math.inf
    ):
        raise InvalidInputError(f"mad_floor must be a nonnegative finite real, got {mad_floor!r}")
    med = median(x.copy())
    dev = x - med
    mad = median(np.abs(dev))
    if mad <= mad_floor:
        return TimeSeries(np.zeros_like(x))
    # A subnormal MAD can overflow the quotient to +-inf; the clip maps that
    # to +-bound, which is the exact answer.
    with np.errstate(over="ignore"):
        u = dev / mad
    return TimeSeries(np.clip(u, -bound, bound))


def preprocess(series: TimeSeries, hp_lambda: float = DEFAULT_HP_LAMBDA) -> TimeSeries:
    """Standardize, subtract the smooth trend, then clip extremes.

    The output is bounded in [-CLIP_C, CLIP_C] and is all zeros exactly when
    the input is degenerate (constant, or zero spread after detrending, as
    for an exact line, up to the trend solve's round-off).
    """
    if series.length < MIN_PIPELINE_LENGTH:
        raise InvalidInputError(
            f"pipeline requires at least {MIN_PIPELINE_LENGTH} samples, got {series.length}"
        )
    standardized, _, std = standardize(series)
    if std == 0.0:
        return standardized
    trend = hp_trend(standardized, hp_lambda)
    detrended = standardized.values - trend.values
    # The banded solve's error on a unit-std series is at most about
    # cond(I + 2*lambda*D'D) * eps <= (1 + 32*lambda) * eps. A MAD below that
    # is round-off, not spread: an exact line leaves nothing else.
    mad_floor = (1.0 + 32.0 * hp_lambda) * np.finfo(np.float64).eps
    return clip_extremes(detrended, CLIP_C, mad_floor)
