"""Normalization, trend removal, and coarse outlier clipping.

The entry point is :func:`preprocess`, which standardizes a series, removes a
smooth trend estimated by a second-difference-penalized least-squares fit,
and clips gross outliers in median/MAD units. Downstream robust estimation
handles everything this coarse stage leaves behind.

The moments are one sum and one sum of squared deviations, the clip two
partition medians, and the trend two real FFTs: the second-difference
matrix is diagonalized by the DST-I, so the trend solve needs no linear
algebra beyond numpy's FFT and a 2x2 correction cached per length and
smoothing.
"""

from __future__ import annotations

import math

import numpy as np

from .cache import TABLES
from .reductions import median, standardize
from .series import InvalidInputError, TimeSeries, check_real, finite_array

# Smoothing default keeps periods up to ~N/4 of a 1000-point series intact
# (half-power cutoff near period 236) while absorbing slower trend. For much
# longer periods raise hp_lambda; half-power period scales like lambda^(1/4).
DEFAULT_HP_LAMBDA = 1e6
# Detrended values are clipped to this many MAD units about their median.
CLIP_C = 3.0

MIN_PIPELINE_LENGTH = 8


def hp_trend(series: TimeSeries, hp_lambda: float) -> TimeSeries:
    """Smooth trend minimizing (1/2)*sum((y-tau)^2) + lambda*sum((d2 tau)^2).

    The unique minimizer solves the pentadiagonal normal equations
    ``(I + 2*lambda*D'D) tau = y`` with D the second-difference operator.
    The trend is y less the residual ``D'(DD' + I/(2*lambda))^-1 D y``, and
    DD' is the square of the tridiagonal L = tridiag(-1, 2, -1) plus one
    unit at each end of its diagonal; L is diagonalized by the DST-I
    (Strang, "The Discrete Cosine Transform", SIAM Review 1999), so
    the inverse costs two real FFTs and a rank-2 correction, O(N log N),
    with a plan built once per length and lambda and shared by every series
    of that length. lambda=0 returns the input; as lambda -> inf the trend
    tends to the least-squares line.
    """
    check_real("hp_lambda", hp_lambda, 0, math.inf, "[)")
    x = series.values
    return TimeSeries(x - _hp_residual(x, hp_lambda))


def _hp_residual(x: np.ndarray, hp_lambda: float) -> np.ndarray:
    """``x`` less its trend, formed without subtracting the trend; zeros for lambda = 0.

    With A = L^2 + I/(2*lambda) and U = [e_1, e_m] (m = n - 2),
    DD' + I/(2*lambda) = A + UU', so by Woodbury its inverse applied to D x
    is w - A^-1 U (I + U'A^-1 U)^-1 U'w with w = A^-1 D x.
    """
    if x.size < 3:
        raise InvalidInputError("trend filtering requires at least 3 samples")
    if hp_lambda == 0:
        return np.zeros_like(x)
    scale, columns, inverse = _hp_plan(x.size, float(hp_lambda))
    w = _dst1(scale * _dst1(x[2:] - 2.0 * x[1:-1] + x[:-2]))
    # elementwise, not a matrix product, so no BLAS kernel sets the rounding
    (a, b), (c, d) = inverse.tolist()
    first, last = float(w[0]), float(w[-1])
    z = w - ((a * first + b * last) * columns[0] + (c * first + d * last) * columns[1])
    return np.convolve(z, (1.0, -2.0, 1.0))


def _dst1(v: np.ndarray) -> np.ndarray:
    """-2 * sum_j v_j sin(pi*j*k/(m+1)), k = 1..m: the DST-I of v, scaled.

    One real FFT of the odd extension (0, v, 0, -reversed v), whose
    spectrum is imaginary.
    """
    m = v.size
    odd = np.zeros(2 * m + 2)
    odd[1 : m + 1] = v
    np.negative(v[::-1], out=odd[m + 2 :])
    return np.fft.rfft(odd).imag[1 : m + 1]


@TABLES
def _hp_plan(n: int, hp_lambda: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``_hp_residual`` needs for length n, all read-only.

    ``scale`` turns ``_dst1(scale * _dst1(v))`` into A^-1 v: L's eigenvalues
    are 4*sin(pi*k/(2(m+1)))^2, and the scaled DST-I squares to 2(m+1)*I.
    ``columns`` holds A^-1 e_1 and A^-1 e_m as rows and ``inverse`` is
    (I + U'A^-1 U)^-1, by an LU in scalars that no LAPACK kernel rounds. A is
    symmetric positive definite and persymmetric, so |A^-1_1m| < 1 + A^-1_11
    and no row swap is needed. It multiplies by reciprocals, as OpenBLAS's
    LU and triangular solves do, so it equals their SSE and AVX2 kernels'
    inverse bit for bit.
    """
    m = n - 2
    eigen = 4.0 * np.sin(np.arange(1, m + 1) * (np.pi / (2 * m + 2))) ** 2
    scale = 1.0 / ((2 * m + 2) * (eigen * eigen + 0.5 / hp_lambda))
    ends = np.zeros((2, m))
    ends[0, 0] = ends[1, -1] = 1.0
    columns = np.stack([_dst1(scale * _dst1(end)) for end in ends])
    # [[a, b], [c, d]] = [[1, 0], [f, 1]] [[a, b], [0, u]]
    (a, b), (c, d) = (np.eye(2) + columns[:, [0, -1]].T).tolist()
    ra = 1.0 / a
    f = c * ra
    ru = 1.0 / (d - f * b)
    lower = -f * ru
    inverse = np.array([[(1.0 - lower * b) * ra, -(ru * b) * ra], [lower, ru]])
    for array in (scale, columns, inverse):
        array.flags.writeable = False
    return scale, columns, inverse


def clip_extremes(x: np.ndarray, bound: float, mad_floor: float) -> TimeSeries:
    """Clip in median/MAD units: sign(u)*min(|u|, bound) with u=(x-med)/MAD.

    MAD is the raw median absolute deviation about the median (no normal
    consistency factor). Output values lie in [-bound, bound]. A MAD at or below
    ``mad_floor`` is degenerate (not an error): the output is all zeros.
    ``x`` must be a nonempty finite 1-d sequence, ``bound`` a positive finite
    real and ``mad_floor`` a nonnegative finite real; ``x`` is not modified.
    """
    x = finite_array("x", x)
    if x.size == 0:
        raise InvalidInputError("clipping needs a nonempty 1-d sequence")
    check_real("bound", bound, 0, math.inf)
    check_real("mad_floor", mad_floor, 0, math.inf, "[)")
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
    for an exact line, up to the input's and the trend solve's round-off).
    """
    check_real("hp_lambda", hp_lambda, 0, math.inf, "[)")
    if series.length < MIN_PIPELINE_LENGTH:
        raise InvalidInputError(
            f"pipeline requires at least {MIN_PIPELINE_LENGTH} samples, got {series.length}"
        )
    # mean and std are in units of a scale that keeps std from underflowing
    standardized, mean, std, _ = standardize(series.values, 1)
    if std == 0.0:
        return TimeSeries(standardized)
    detrended = _hp_residual(standardized, hp_lambda)
    # A MAD at round-off is not spread: an exact line leaves nothing else. In
    # units of the series' std, the input's own rounding is about
    # eps*|mean|/std and the trend solve's at most about 0.04*n*eps, whatever
    # lambda. Lines y = a*t + b (N from 8 to 20 000, lambda from 0.5 to 1e300)
    # leave a MAD of at most 0.28*eps*(n + |mean|/std), so four times that
    # is a floor with margin. A unit sine of period 50 at N = 1000 leaves
    # 4.8e-4 or more from lambda = 1 up.
    mad_floor = 4.0 * np.finfo(np.float64).eps * (series.length + abs(mean) / std)
    return clip_extremes(detrended, CLIP_C, mad_floor)
