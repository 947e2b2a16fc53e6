"""Time series carrier and shared error types."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidInputError(ValueError):
    """An input violates an operation's contract."""


class InternalError(RuntimeError):
    """A computed intermediate violates an internal invariant."""


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real-valued samples.

    Values are coerced to a 1-d float64 array on construction and must be
    finite; NaN/Inf are rejected at ingestion rather than propagated.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise InvalidInputError("time series must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("time series contains NaN or infinite values")
        object.__setattr__(self, "values", values)

    @property
    def length(self) -> int:
        return int(self.values.size)
