"""Maximal-overlap discrete wavelet transform and robust level ranking.

The decomposition is the standard circular-boundary pyramid: the unit-level
filter pair is applied with stride 2^(j-1) to the previous level's scaling
coefficients, which is equivalent to direct circular convolution with the
upsampled level-j filters. Coefficient energy is preserved exactly across
levels. Each level's variance is estimated robustly over the nonboundary
coefficients and converted to a share of the total wavelet variance for
ranking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .series import InternalError, InvalidInputError, TimeSeries

_SQRT2 = math.sqrt(2.0)

MAX_FAMILY_ORDER = 10


@dataclass(frozen=True)
class WaveletFilterPair:
    """Unit-level wavelet/scaling filter pair, rescaled by 1/sqrt(2).

    After rescaling, sum(h)=0, sum(g)=1 and sum(h^2)=sum(g^2)=1/2.
    """

    h: np.ndarray
    g: np.ndarray
    L1: int


@dataclass(frozen=True)
class WaveletLevel:
    """One decomposition level: coefficients plus ranking statistics."""

    j: int
    w: np.ndarray
    variance: float | None
    share: float


@dataclass(frozen=True)
class WaveletDecomposition:
    levels: tuple[WaveletLevel, ...]
    scaling: np.ndarray

    def level(self, j: int) -> WaveletLevel:
        return self.levels[j - 1]


def _daubechies_scaling(order: int) -> np.ndarray:
    """Extremal-phase Daubechies scaling filter of length 2*order.

    Built by spectral factorization: the roots of the binomial polynomial
    P(y) = sum_k C(order-1+k, k) y^k are mapped to the z-plane through
    y = (2 - z - 1/z)/4 and the minimum-phase root of each quadratic is
    kept. Accurate to ~1e-14 for orders up to 10 after Newton polishing.
    """
    if order == 1:
        return np.array([1.0, 1.0]) / _SQRT2

    binom = np.array(
        [math.comb(order - 1 + k, k) for k in range(order)], dtype=np.float64
    )
    poly_desc = binom[::-1]
    yroots = np.roots(poly_desc)
    deriv_desc = np.polyder(poly_desc)
    for _ in range(3):
        vals = np.polyval(poly_desc, yroots)
        ders = np.polyval(deriv_desc, yroots)
        yroots = yroots - vals / ders

    # z^2 + (4y - 2)z + 1 = 0; product of the roots is 1, keep |z| < 1.
    zroots = []
    for y in yroots:
        b = 4.0 * y - 2.0
        disc = np.sqrt(complex(b * b - 4.0))
        r = (-b + disc) / 2.0
        if abs(r) > 1.0:
            r = 1.0 / r
        zroots.append(r)

    q = np.poly(zroots)
    if np.max(np.abs(q.imag)) > 1e-10:
        raise InternalError("wavelet factorization produced non-real filter")
    smooth = np.poly([-1.0] * order) / (2.0**order)
    coeffs = np.convolve(smooth, q.real)
    coeffs = coeffs * (_SQRT2 / coeffs.sum())
    # Convention: largest-magnitude taps lead (matches published tables).
    if np.argmax(np.abs(coeffs)) > coeffs.size // 2:
        coeffs = coeffs[::-1]
    return coeffs


def check_family_order(family_order: int) -> None:
    """Reject anything but an integer Daubechies order in 1..MAX_FAMILY_ORDER."""
    if (
        isinstance(family_order, bool)
        or not isinstance(family_order, (int, np.integer))
        or not 1 <= family_order <= MAX_FAMILY_ORDER
    ):
        raise InvalidInputError(
            f"family_order must be an integer in 1..{MAX_FAMILY_ORDER}, got {family_order!r}"
        )


def daubechies_filters(family_order: int = 4) -> WaveletFilterPair:
    """MODWT-rescaled Daubechies extremal-phase filters; tap count 2*order.

    Built once per order and shared: the taps are read-only.
    """
    check_family_order(family_order)
    return _filters(int(family_order))


@functools.lru_cache(maxsize=None)
def _filters(order: int) -> WaveletFilterPair:
    g = _daubechies_scaling(order)
    h = ((-1.0) ** np.arange(g.size)) * g[::-1] / _SQRT2
    g = g / _SQRT2
    h.flags.writeable = g.flags.writeable = False
    return WaveletFilterPair(h=h, g=g, L1=g.size)


def level_width(j: int, L1: int) -> int:
    """Equivalent filter width at level j: (2^j - 1)(L1 - 1) + 1."""
    return (2**j - 1) * (L1 - 1) + 1


def max_level(n: int, L1: int) -> int:
    """Deepest level whose equivalent filter still fits the series.

    Largest J0 with level_width(J0) <= n, additionally capped at
    floor(log2(n)) - 1 so the coarsest passband stays meaningful.
    """
    if n < L1:
        raise InvalidInputError(f"series of length {n} is shorter than the filter ({L1})")
    j = 1
    while level_width(j + 1, L1) <= n:
        j += 1
    cap = n.bit_length() - 2  # floor(log2 n) - 1
    j0 = min(j, cap)
    if j0 < 1:
        raise InvalidInputError(f"series of length {n} is too short to decompose")
    return j0


def _circular_filter_pair(
    filters: WaveletFilterPair, signal: np.ndarray, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Both out[t] = sum_l f[l] * signal[(t - stride*l) mod n], for f = h and g.

    The circular block signal[(t - stride*l) mod n] is gathered once for both.
    """
    n = signal.size
    idx = (np.arange(n)[:, None] - stride * np.arange(filters.L1)[None, :]) % n
    block = signal[idx]
    return block @ filters.h, block @ filters.g


def biweight_midvariance(w: np.ndarray, width: int) -> float:
    """Robust variance of the nonboundary coefficients w[width-1:].

    Tukey biweight midvariance with u = (w - med)/(9*MAD), observations with
    |u| >= 1 discarded:

        M * sum((w-med)^2 (1-u^2)^4) / (sum((1-u^2)(1-5u^2)))^2

    where M is the nonboundary count. Near-consistent for the variance under
    normality and insensitive to heavy contamination. MAD of zero (more than
    half the values identical) returns 0.
    """
    w = np.asarray(w, dtype=np.float64)
    tail = w[width - 1 :]
    m = tail.size
    if m < 4:
        raise InvalidInputError("too few nonboundary coefficients for variance estimation")
    med = np.median(tail)
    dev = tail - med
    mad = np.median(np.abs(dev))
    if mad == 0.0:
        return 0.0
    u = dev / (9.0 * mad)
    usq = u * u
    keep = usq < 1.0
    usq = usq[keep]
    dev = dev[keep]
    denom = np.sum((1.0 - usq) * (1.0 - 5.0 * usq))
    if denom == 0.0:
        return 0.0
    num = m * np.sum(dev * dev * (1.0 - usq) ** 4)
    return float(num / (denom * denom))


def modwt_decompose(
    series: TimeSeries,
    filters: WaveletFilterPair,
    j0: int,
    robust: bool = True,
) -> WaveletDecomposition:
    """Pyramid decomposition into j0 wavelet levels plus the final scaling.

    Per-level variances use the biweight midvariance over nonboundary
    coefficients (or the plain sample variance when ``robust=False``).
    Levels with fewer than 4 nonboundary coefficients get variance None and
    are excluded from shares and ranking.
    """
    x = series.values
    n = x.size
    if j0 < 1 or j0 > max_level(n, filters.L1):
        raise InvalidInputError(
            f"decomposition depth {j0} exceeds the maximum for length {n}"
        )

    coeffs = []
    v = x
    for j in range(1, j0 + 1):
        w, v = _circular_filter_pair(filters, v, 2 ** (j - 1))
        coeffs.append(w)

    variances: list[float | None] = []
    for j, w in enumerate(coeffs, start=1):
        width = level_width(j, filters.L1)
        if n - width + 1 < 4:
            variances.append(None)
        elif robust:
            variances.append(biweight_midvariance(w, width))
        else:
            variances.append(float(np.var(w[width - 1 :], ddof=1)))

    total = sum(var for var in variances if var is not None)
    levels = tuple(
        WaveletLevel(
            j=j,
            w=w,
            variance=var,
            share=(var / total) if (var is not None and total > 0) else 0.0,
        )
        for j, (w, var) in enumerate(zip(coeffs, variances), start=1)
    )
    return WaveletDecomposition(levels=levels, scaling=v)


def rank_levels(decomp: WaveletDecomposition, share_threshold: float) -> list[int]:
    """Level indices sorted by variance descending, keeping shares >= threshold."""
    scored = [
        (lev.variance, lev.j)
        for lev in decomp.levels
        if lev.variance is not None and lev.variance > 0 and lev.share >= share_threshold
    ]
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [j for _, j in scored]
