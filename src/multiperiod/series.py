"""Time series carrier and shared error types."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidInputError(ValueError):
    """An input violates an operation's contract."""


class InternalError(RuntimeError):
    """A computed intermediate violates an internal invariant."""


def _real_array(values) -> np.ndarray:
    """``values`` as float64; complex or non-numeric input is an InvalidInputError."""
    try:
        array = np.asarray(values)
        if array.dtype.kind in "biufO":  # bool, integer, float, or objects such as Decimal
            return array.astype(np.float64, copy=False)
    except (TypeError, ValueError):  # ragged nesting, or an object float() refuses
        pass
    raise InvalidInputError("time series values must be real numbers")


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real-valued samples.

    Values are coerced to a 1-d float64 array on construction and must be
    real and finite: complex or non-numeric input and NaN/Inf are rejected
    at ingestion rather than dropped or propagated.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = _real_array(self.values)
        if values.ndim != 1 or values.size == 0:
            raise InvalidInputError("time series must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("time series contains NaN or infinite values")
        object.__setattr__(self, "values", values)

    @property
    def length(self) -> int:
        return int(self.values.size)
