"""Reference formulas the tests compare the package's fast paths against.

None is used by the package itself: the detector's periodogram comes from
one real FFT of the padded series, its Huber fit never forms the full
objective, its wavelet levels come from a table of gains, and its wavelet
taps are a table made once by ``daubechies_scaling``. ``unit_spectrum`` is
a shorthand for the tests.
"""

import math

import numpy as np

from multiperiod.preprocess import _hp_residual
from multiperiod.series import InvalidInputError
from multiperiod.spectral import DEFAULT_ZETA, huber_periodogram


def unit_spectrum(x, robust=True, zeta=DEFAULT_ZETA):
    """``huber_periodogram`` of a padded series with one level of unit gain.

    Its ``power[0]`` is the spectrum itself, bins 0..N.
    """
    return huber_periodogram(x, np.ones((1, np.size(x) // 2 + 1)), [1], zeta, robust)


def hp_trend(y, hp_lambda):
    """The smooth trend of ``y``: ``y`` less the residual the package detrends to."""
    y = np.asarray(y, dtype=np.float64)
    return y - _hp_residual(y, hp_lambda)


def vanilla_periodogram(x: np.ndarray) -> np.ndarray:
    """P_k = |DFT(x)_k|^2 / n over all n bins of the last axis; sum_k P_k == sum_t x_t^2."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise InvalidInputError("periodogram requires at least 2 samples")
    spec = np.fft.fft(x, axis=-1)
    return (spec.real**2 + spec.imag**2) / x.shape[-1]


def level_filters(pair, j):
    """Level j's equivalent wavelet and scaling filters, (h_j, g_j).

    The unit filters upsampled by 2^l, cascaded by explicit convolution.
    """

    def upsample(f, factor):
        out = np.zeros(factor * (f.size - 1) + 1)
        out[::factor] = f
        return out

    g_cascade = np.array([1.0])
    for i in range(j - 1):
        g_cascade = np.convolve(g_cascade, upsample(pair.g, 2**i))
    h_j = np.convolve(g_cascade, upsample(pair.h, 2 ** (j - 1)))
    g_j = np.convolve(g_cascade, upsample(pair.g, 2 ** (j - 1)))
    return h_j, g_j


def circular_filter(y, f):
    """w[t] = sum_l f[l] y[(t - l) mod n], by direct convolution; f no longer than y."""
    n = y.size
    full = np.convolve(y, f)
    out = full[:n].copy()
    out[: full.size - n] += full[n:]
    return out


def huber_objective(residual: np.ndarray, zeta: float) -> float:
    """sum of 0.5*r^2 for |r| <= zeta, else zeta*|r| - 0.5*zeta^2."""
    a = np.abs(residual)
    quad = a <= zeta
    return float(
        0.5 * np.sum(residual[quad] ** 2) + np.sum(zeta * a[~quad] - 0.5 * zeta**2)
    )


def daubechies_scaling(order: int) -> np.ndarray:
    """Extremal-phase Daubechies scaling filter of length 2*order.

    Built by spectral factorization: the roots of the binomial polynomial
    P(y) = sum_k C(order-1+k, k) y^k are mapped to the z-plane through
    y = (2 - z - 1/z)/4 and the minimum-phase root of each quadratic is
    kept. Accurate to ~1e-14 for orders up to 10 after Newton polishing.
    """
    if order == 1:
        return np.array([1.0, 1.0]) / math.sqrt(2.0)

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
        raise AssertionError("wavelet factorization produced non-real filter")
    smooth = np.poly([-1.0] * order) / (2.0**order)
    coeffs = np.convolve(smooth, q.real)
    coeffs = coeffs * (math.sqrt(2.0) / coeffs.sum())
    # Convention: largest-magnitude taps lead (matches published tables).
    if np.argmax(np.abs(coeffs)) > coeffs.size // 2:
        coeffs = coeffs[::-1]
    return coeffs
