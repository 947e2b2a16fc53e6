"""Exact reductions shared by the preprocessing, MODWT and spectral stages.

Each equals its numpy counterpart bit for bit: numpy sums, partitions and
divides the same way, but at a series' length its generic entry points
(``np.median``, ``np.mean``, ``np.std``, ``np.var``) cost more than the
arithmetic they do.
"""

from __future__ import annotations

import math

import numpy as np


def median(values: np.ndarray) -> np.float64:
    """``np.median`` of a nonempty 1-d array, partitioned in place.

    Equal to numpy's value, sign of zero included: numpy sums the central
    values from +0.0 before it halves them, hence the ``+ 0.0``. The values
    are only reordered.
    """
    half = values.size // 2
    if values.size % 2:
        values.partition(half)
        return values[half] + 0.0
    values.partition((half - 1, half))
    return (values[half - 1] + values[half] + 0.0) / 2


def center(values: np.ndarray, ddof: int):
    """The mean of a 1-d array, the deviations from it and their variance.

    Bit for bit ``np.mean(values)``, ``values - mean`` and
    ``np.var(values, ddof=ddof)``.
    """
    mean = values.sum() / values.size
    dev = values - mean
    return mean, dev, (dev * dev).sum() / (values.size - ddof)


def standardize(x: np.ndarray, ddof: int):
    """``x`` less its mean, over its std, and those moments.

    Returns ``(standardized, mean, std, scale)``. The values are bit for bit
    ``(v - np.mean(v)) / np.std(v, ddof=ddof)`` of ``v = x / scale``, and the
    mean and std are in units of ``scale``: 1.0, unless ``x`` varies but its
    squared deviations under- or overflow, and then its max |value|. An
    exactly constant ``x`` is degenerate: it comes back as zeros, with std
    0.0 and its value as its mean. A rescaled series' std can still be 0.0
    in the input's units (63 zeros and one 5e-324 have std 6e-325), so only
    a zero std in units of ``scale`` flags degeneracy.
    """
    lo, hi = x.min(), x.max()
    # Only an exactly constant series has zero spread: its rounded mean can
    # leave deviations of a few ulps, which a positive std would rescale to +-1.
    if lo == hi:
        return np.zeros_like(x), lo, 0.0, 1.0
    scale = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        mean, dev, var = center(x, ddof)
    std = np.sqrt(var)
    if not 0.0 < std < math.inf:
        scale = max(-lo, hi)
        mean, dev, var = center(x / scale, ddof)
        std = np.sqrt(var)
    dev /= std
    return dev, mean, std, scale
