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

    Equal to numpy's value, sign of zero included: numpy returns a zero
    median as +0.0, hence the ``+ 0.0``. The values are only reordered.
    """
    half = values.size // 2
    if values.size % 2:
        values.partition(half)
        return values[half] + 0.0
    values.partition((half - 1, half))
    return (values[half - 1] + values[half]) / 2 + 0.0


def center(values: np.ndarray, ddof: int):
    """Mean along the last axis, the deviations from it and their variance.

    Bit for bit ``np.mean(values, -1)``, ``values - mean`` and
    ``np.var(values, -1, ddof=ddof)``. The mean and variance are scalars for
    a 1-d ``values`` and one entry per row for a 2-d stack.
    """
    n = values.shape[-1]
    mean = values.sum(axis=-1) / n
    dev = values - mean[..., None]
    return mean, dev, (dev * dev).sum(axis=-1) / (n - ddof)


def standardize(rows: np.ndarray, ddof: int):
    """Each row of a 2-d stack less its mean, over its std, and those moments.

    Returns ``(standardized, mean, std, scale)``, one mean, std and scale per
    row. The values are bit for bit ``(x - np.mean(x)) / np.std(x, ddof=ddof)``
    of ``x = row / scale``, and the mean and std are in units of ``scale``:
    1.0, unless the row varies but its squared deviations under- or overflow,
    and then its max |value|. An exactly constant row is degenerate: it comes
    back as zeros, with std 0.0 and its value as its mean. A rescaled row's
    std can still be 0.0 in the input's units (63 zeros and one 5e-324 have
    std 6e-325), so only a zero std in units of ``scale`` flags degeneracy.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean, dev, var = center(rows, ddof)
    std, scale = np.sqrt(var), np.ones(len(rows))
    lo, hi = rows.min(axis=-1), rows.max(axis=-1)
    if all(a < b and 0.0 < s < math.inf for a, b, s in zip(lo.tolist(), hi.tolist(), std.tolist())):
        dev /= std[:, None]
        return dev, mean, std, scale
    # Only an exactly constant row has zero spread: its rounded mean can leave
    # deviations of a few ulps, which a positive std would rescale to +-1.
    constant = lo == hi
    extreme = ~constant & ~((std > 0.0) & (std < math.inf))
    scale[extreme] = np.abs(rows[extreme]).max(axis=-1)
    mean[extreme], dev[extreme], var[extreme] = center(rows[extreme] / scale[extreme, None], ddof)
    std[extreme] = np.sqrt(var[extreme])
    mean[constant], dev[constant], std[constant] = lo[constant], 0.0, 0.0
    np.divide(dev, std[:, None], out=dev, where=~constant[:, None])
    return dev, mean, std, scale
