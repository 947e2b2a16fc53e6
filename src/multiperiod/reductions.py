"""Exact reductions shared by the preprocessing, MODWT and spectral stages.

Each equals its numpy counterpart bit for bit: numpy sums, partitions and
divides the same way, but at a series' length its generic entry points
(``np.median``, ``np.mean``, ``np.std``, ``np.var``) cost more than the
arithmetic they do.
"""

from __future__ import annotations

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
