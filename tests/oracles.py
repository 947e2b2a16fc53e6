"""Reference formulas the tests compare the package's fast paths against.

Neither is used by the package itself: the detector's periodogram comes from
one real FFT of each padded level, and its Huber fit never forms the full
objective.
"""

import numpy as np

from multiperiod.series import InvalidInputError


def vanilla_periodogram(x: np.ndarray) -> np.ndarray:
    """P_k = |DFT(x)_k|^2 / n over all n bins of the last axis; sum_k P_k == sum_t x_t^2."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise InvalidInputError("periodogram requires at least 2 samples")
    spec = np.fft.fft(x, axis=-1)
    return (spec.real**2 + spec.imag**2) / x.shape[-1]


def huber_objective(residual: np.ndarray, zeta: float) -> float:
    """sum of 0.5*r^2 for |r| <= zeta, else zeta*|r| - 0.5*zeta^2."""
    a = np.abs(residual)
    quad = a <= zeta
    return float(
        0.5 * np.sum(residual[quad] ** 2) + np.sum(zeta * a[~quad] - 0.5 * zeta**2)
    )
