"""Maximal-overlap discrete wavelet transform and robust level ranking.

The decomposition is circular, so level j is its equivalent filter's gain
times the series' DFT (Percival & Walden 2000, ch. 5): every level comes
from one real FFT of the series, one product with a table of level gains
built once per filter pair, length and depth, and one inverse real FFT.
The levels and the final scaling, which nothing reads and so is not formed,
preserve the series' energy. Each level's variance is estimated robustly
over the nonboundary coefficients and converted to a share of the total
wavelet variance for ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cache import TABLES
from .reductions import center, median
from .series import (
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
    ones (0 where unknown).
    """

    w: np.ndarray
    variance: np.ndarray
    share: np.ndarray


# Extremal-phase Daubechies scaling filters of orders 1-10, 2*order taps each,
# largest taps first as in published tables, summing to sqrt(2). They come
# from spectral factorization of the binomial polynomial (the reference in
# tests/oracles.py), whose root solve rounds differently under different
# OpenBLAS kernels; a table gives every machine the same taps. It was made
# under the Nehalem kernel, whose order-4 taps all the AVX kernels share.
_SCALING_TAPS = (
    (0.7071067811865475, 0.7071067811865475),
    (
        0.48296291314453416, 0.8365163037378078, 0.2241438680420134,
        -0.12940952255126037,
    ),
    (
        0.3326705529500826, 0.8068915093110924, 0.45987750211849154,
        -0.13501102001025458, -0.08544127388202666, 0.035226291885709526,
    ),
    (
        0.23037781330889653, 0.7148465705529158, 0.630880767929859,
        -0.027983769416859906, -0.18703481171909309, 0.030841381835560778,
        0.03288301166688521, -0.01059740178506903,
    ),
    (
        0.16010239797419298, 0.6038292697971899, 0.724308528437773, 0.13842814590132052,
        -0.2422948870663823, -0.03224486958463832, 0.07757149384004583,
        -0.006241490212798248, -0.012580751999082, 0.003335725285473773,
    ),
    (
        0.11154074335010951, 0.4946238903984533, 0.7511339080210957,
        0.31525035170919796, -0.22626469396544027, -0.1297668675672621,
        0.09750160558732285, 0.027522865530305727, -0.03158203931748603,
        0.0005538422011614956, 0.0047772575109455125, -0.0010773010853084796,
    ),
    (
        0.07785205408500923, 0.39653931948191756, 0.7291320908462358,
        0.4697822874051936, -0.14390600392856498, -0.22403618499387537,
        0.07130921926683033, 0.0806126091510826, -0.038029936935014684,
        -0.01657454163066689, 0.01255099855609984, 0.0004295779729213671,
        -0.0018016407040474917, 0.00035371379997452035,
    ),
    (
        0.054415842243103925, 0.3128715909142995, 0.6756307362972888,
        0.5853546836542058, -0.015829105256349053, -0.28401554296154513,
        0.00047248457391304666, 0.12874742662047847, -0.017369301001806992,
        -0.04408825393079453, 0.013981027917398284, 0.008746094047405778,
        -0.004870352993451555, -0.0003917403733769453, 0.0006754494064505682,
        -0.00011747678412476933,
    ),
    (
        0.03807794736387825, 0.24383467461258973, 0.6048231236901096,
        0.6572880780512993, 0.1331973858250077, -0.2932737832791746,
        -0.09684078322297447, 0.1485407493381077, 0.030725681479333317,
        -0.06763282906132949, 0.00025094711483128083, 0.022361662123678745,
        -0.00472320475775134, -0.004281503682463412, 0.0018476468830562265,
        0.00023038576352319576, -0.0002519631889427095, 3.934732031627151e-05,
    ),
    (
        0.0266700579005555, 0.1881768000776911, 0.5272011889317245, 0.6884590394536022,
        0.28117234366057525, -0.24984642432731574, -0.19594627437738038,
        0.1273693403357933, 0.09305736460357131, -0.07139414716639536,
        -0.02945753682187262, 0.033212674059344006, 0.0036065535669574343,
        -0.010733175483329947, 0.0013953517470530218, 0.001992405295185072,
        -0.0006858566949597092, -0.00011646685512928563, 9.358867032006936e-05,
        -1.3264202894521222e-05,
    ),
)


def daubechies_filters(family_order: int = 4) -> WaveletFilterPair:
    """MODWT-rescaled Daubechies extremal-phase filters; tap count 2*order.

    One pair per order, shared: the taps are read-only.
    """
    check_int("family_order", family_order, 1, MAX_FAMILY_ORDER)
    return _FILTERS[int(family_order) - 1]


def _filter_pair(taps: tuple[float, ...]) -> WaveletFilterPair:
    g = np.array(taps)
    h = ((-1.0) ** np.arange(g.size)) * g[::-1] / _SQRT2
    g = g / _SQRT2
    h.flags.writeable = g.flags.writeable = False
    return WaveletFilterPair(h=h, g=g, L1=g.size)


_FILTERS = tuple(_filter_pair(taps) for taps in _SCALING_TAPS)


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
    """Smallest length >= m (m >= 1) with no prime factor above 7."""
    while True:
        rest = m
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` for complex arrays, in real arithmetic.

    numpy's SIMD complex product rounds differently on CPUs with and
    without AVX-512; real products and sums round the same on all.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@TABLES
def level_gains(filters: WaveletFilterPair, m: int, j0: int) -> np.ndarray:
    """The read-only (j0, m//2 + 1) table of level gains at length m.

    Row j - 1 is level j's wavelet gain H(2^(j-1) k) * prod_{l<j-1} G(2^l k)
    at the m-point Fourier frequencies k = 0..m//2, indices mod m, with H and
    G the unit filters' m-point FFTs. The MODWT reads it at its transform
    length, and the detector squares its magnitude at twice the series'
    length to weight the padded series' spectrum.
    """
    check_int("m", m, 1)
    check_int("j0", j0, 1)
    k = np.arange(m // 2 + 1)
    wavelet, scaling = np.fft.fft(filters.h, m), np.fft.fft(filters.g, m)
    gains = np.empty((j0, k.size), dtype=np.complex128)
    cascade = np.ones(k.size, dtype=np.complex128)
    for j in range(1, j0 + 1):
        at = (k << (j - 1)) % m
        gains[j - 1] = _product(wavelet[at], cascade)
        if j < j0:
            cascade = _product(cascade, scaling[at])
    return gains


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
    # squared twice, not ** 4, whose SIMD power rounds differently by CPU
    weight = (1.0 - usq) * (1.0 - usq)
    num = m * np.sum(dev * dev * (weight * weight))
    return float(num / (denom * denom))


def modwt_decompose(
    series: TimeSeries,
    filters: WaveletFilterPair,
    j0: int,
    robust: bool = True,
) -> WaveletDecomposition:
    """Decomposition into j0 wavelet levels.

    Every level is one inverse real FFT of the series' spectrum times the
    cached gains of ``level_gains`` at length m. m is n when n has no prime
    factor above 7, and the product is then the circular convolution
    itself. Otherwise m is the smallest such length that holds the linear
    convolution, n + level_width(j0) - 1 samples, which keeps
    prime lengths off numpy's slow FFT path.
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

    wrap = level_width(j0, filters.L1) - 1
    m = _smooth_length(n)
    if m != n:
        m = _smooth_length(n + wrap)
    coeffs = np.fft.irfft(_product(np.fft.rfft(x, m), level_gains(filters, m, j0)), m)
    if m > n:
        # the linear convolution spans n + wrap < 2n samples: fold its tail
        coeffs[:, :wrap] += coeffs[:, n : n + wrap]
    w = coeffs[:, :n]
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
    return WaveletDecomposition(w=w, variance=variance, share=share)


def rank_levels(decomp: WaveletDecomposition, share_threshold: float) -> list[int]:
    """Levels sorted by variance descending, keeping shares >= threshold.

    Only positive variances qualify; equal variances rank the lower level first.
    """
    check_real("share_threshold", share_threshold, 0, 1, "[]")
    rows = np.flatnonzero((decomp.variance > 0) & (decomp.share >= share_threshold))
    rows = rows[np.argsort(-decomp.variance[rows], kind="stable")]
    return (rows + 1).tolist()
