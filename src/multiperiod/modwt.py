"""Maximal-overlap discrete wavelet transform and robust level ranking.

The decomposition is circular, so level j is its equivalent filter's gain
times the series' DFT (Percival & Walden 2000, ch. 5): every level and the
final scaling come from one real FFT of the series, one product with a
table of level gains built once per filter pair, length and depth, and one
inverse real FFT. Coefficient energy is preserved exactly across levels.
Each level's variance is estimated robustly over the nonboundary
coefficients and converted to a share of the total wavelet variance for
ranking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .reductions import center, median
from .series import (
    InternalError,
    InvalidInputError,
    TimeSeries,
    check_bool,
    check_int,
    check_real,
    finite_array,
)

_SQRT2 = math.sqrt(2.0)

MAX_FAMILY_ORDER = 10


@dataclass(frozen=True, eq=False)
class WaveletFilterPair:
    """Unit-level wavelet/scaling filter pair, rescaled by 1/sqrt(2).

    After rescaling, sum(h)=0, sum(g)=1 and sum(h^2)=sum(g^2)=1/2. A pair
    compares and hashes by identity, so the level gains cached for it are
    its own.
    """

    h: np.ndarray
    g: np.ndarray
    L1: int


@dataclass(frozen=True)
class WaveletDecomposition:
    """Row j - 1 of ``w`` (j0, N), ``variance`` and ``share`` (j0,) is level j.

    ``variance`` is NaN for a level with fewer than 4 nonboundary
    coefficients, and ``share`` is each variance over the sum of the known
    ones (0 where unknown). ``scaling`` is the final scaling coefficients.
    """

    w: np.ndarray
    variance: np.ndarray
    share: np.ndarray
    scaling: np.ndarray


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


def daubechies_filters(family_order: int = 4) -> WaveletFilterPair:
    """MODWT-rescaled Daubechies extremal-phase filters; tap count 2*order.

    Built once per order and shared: the taps are read-only.
    """
    check_int("family_order", family_order, 1, MAX_FAMILY_ORDER)
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


def _smooth_length(m: int) -> int:
    """Smallest length >= m with no prime factor above 7."""
    best = 1 << (m - 1).bit_length()
    p7 = 1
    while p7 < best:
        p5 = p7
        while p5 < best:
            p3 = p5
            while p3 < best:
                p2 = p3
                while p2 < m:
                    p2 *= 2
                best = min(best, p2)
                p3 *= 3
            p5 *= 5
        p7 *= 7
    return best


@functools.lru_cache(maxsize=8)
def _level_gains(filters: WaveletFilterPair, n: int, j0: int) -> tuple[int, np.ndarray]:
    """Transform length m and the read-only (j0 + 1, m//2 + 1) gain table.

    Row j - 1 is level j's wavelet gain H(2^(j-1) k) * prod_{l<j-1} G(2^l k)
    at the m-point Fourier frequencies k = 0..m//2, indices mod m, with H and
    G the unit filters' m-point FFTs; the last row is the level-j0 scaling
    gain. m is n when n has no prime factor above 7, and the product is then
    the circular convolution itself. Otherwise m is the smallest such length
    that holds the linear convolution, n + level_width(j0) - 1 samples, which
    keeps prime lengths off numpy's slow FFT path.
    """
    m = _smooth_length(n)
    if m != n:
        m = _smooth_length(n + level_width(j0, filters.L1) - 1)
    k = np.arange(m // 2 + 1)
    wavelet, scaling = np.fft.fft(filters.h, m), np.fft.fft(filters.g, m)
    gains = np.empty((j0 + 1, k.size), dtype=np.complex128)
    cascade = np.ones(k.size, dtype=np.complex128)
    for j in range(1, j0 + 1):
        at = (k << (j - 1)) % m
        gains[j - 1] = wavelet[at] * cascade
        cascade *= scaling[at]
    gains[j0] = cascade
    gains.flags.writeable = False
    return m, gains


def biweight_midvariance(w: np.ndarray, width: int) -> float:
    """Robust variance of the nonboundary coefficients w[width-1:].

    Tukey biweight midvariance with u = (w - med)/(9*MAD), observations with
    |u| >= 1 discarded:

        M * sum((w-med)^2 (1-u^2)^4) / (sum((1-u^2)(1-5u^2)))^2

    where M is the nonboundary count. Near-consistent for the variance under
    normality and insensitive to heavy contamination. MAD of zero (more than
    half the values identical) returns 0.
    """
    check_int("width", width, 1)
    w = finite_array("w", w)
    tail = w[width - 1 :]
    m = tail.size
    if m < 4:
        raise InvalidInputError("too few nonboundary coefficients for variance estimation")
    med = median(tail.copy())
    dev = tail - med
    mad = median(np.abs(dev))
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
    """Decomposition into j0 wavelet levels plus the final scaling.

    Every level and the scaling are one inverse real FFT of the series'
    spectrum times the cached gains of ``_level_gains``.
    Per-level variances use the biweight midvariance over nonboundary
    coefficients (or the plain sample variance when ``robust=False``).
    Levels with fewer than 4 nonboundary coefficients get variance NaN and
    are excluded from shares and ranking.
    """
    x = series.values
    n = x.size
    check_int("j0", j0, 1)
    check_bool("robust", robust)
    if j0 > max_level(n, filters.L1):
        raise InvalidInputError(
            f"decomposition depth {j0} exceeds the maximum for length {n}"
        )

    m, gains = _level_gains(filters, n, j0)
    coeffs = np.fft.irfft(np.fft.rfft(x, m) * gains, m)
    if m > n:
        # the linear convolution spans n + wrap < 2n samples: fold its tail
        wrap = level_width(j0, filters.L1) - 1
        coeffs[:, :wrap] += coeffs[:, n : n + wrap]
    w = coeffs[:j0, :n]
    variance = np.full(j0, np.nan)
    for j in range(1, j0 + 1):
        width = level_width(j, filters.L1)
        if n - width + 1 < 4:
            continue
        if robust:
            variance[j - 1] = biweight_midvariance(w[j - 1], width)
        else:
            variance[j - 1] = center(w[j - 1, width - 1 :], 1)[2]

    known = ~np.isnan(variance)
    # left to right, as numpy's pairwise sum rounds differently from 8 levels on
    total = sum(variance[known].tolist())
    share = np.zeros(j0)
    if total > 0:
        share[known] = variance[known] / total
    return WaveletDecomposition(w=w, variance=variance, share=share, scaling=coeffs[j0, :n])


def rank_levels(decomp: WaveletDecomposition, share_threshold: float) -> list[int]:
    """Levels sorted by variance descending, keeping shares >= threshold.

    Only positive variances qualify; equal variances rank the lower level first.
    """
    check_real("share_threshold", share_threshold, 0, 1, "[]")
    rows = np.flatnonzero((decomp.variance > 0) & (decomp.share >= share_threshold))
    rows = rows[np.argsort(-decomp.variance[rows], kind="stable")]
    return (rows + 1).tolist()
