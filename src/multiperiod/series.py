"""Time series carrier, shared error types and the package's argument checks.

Every stage checks its arguments with ``check_real``, ``check_int``,
``check_bool`` and ``finite_array``, which validate without converting a
scalar.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class InvalidInputError(ValueError):
    """An input violates an operation's contract."""


def check_real(name: str, value, lo=-math.inf, hi=math.inf, ends: str = "()") -> None:
    """Reject anything but a real number in the interval from ``lo`` to ``hi``.

    ``ends`` marks each end open, "(" or ")", or closed, "[" or "]"; the
    default interval holds every finite real. NaN lies in no interval.
    """
    # a float or an int (never a bool) skips the slower abstract-class test
    if type(value) not in (float, int) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    if (lo < value if ends[0] == "(" else lo <= value) and (
        value < hi if ends[1] == ")" else value <= hi
    ):
        return
    admits_inf = (ends[0] == "[" and lo == -math.inf) or (ends[1] == "]" and hi == math.inf)
    finite = "" if admits_inf or -math.inf < value < math.inf else "finite and "
    raise InvalidInputError(
        f"{name} must be {finite}in {ends[0]}{lo}, {hi}{ends[1]}, got {value!r}"
    )


def check_int(name: str, value, lo=-math.inf, hi=math.inf) -> None:
    """Reject anything but an integer in [lo, hi]; a float such as 2.0 is rejected."""
    if (
        type(value) is not int
        and (isinstance(value, bool) or not isinstance(value, numbers.Integral))
    ) or not lo <= value <= hi:
        raise InvalidInputError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


def check_bool(name: str, value) -> None:
    """Reject anything but a bool or a numpy bool; a truthy 1 or "no" is rejected."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidInputError(f"{name} must be a bool, got {value!r}")


def finite_array(name: str, values, ndims=(1,), *, integer: bool = False) -> np.ndarray:
    """``values`` as a finite float64 array with a dimension count in ``ndims``.

    Complex, non-numeric and ragged input is rejected, and with ``integer``
    so are bool arrays and fractional entries. A float64 array is not copied.
    """
    try:
        array = np.asarray(values)
        kind = array.dtype.kind
        real = kind in ("iufO" if integer else "biufO")  # O: objects such as Decimal
        array = array.astype(np.float64, copy=False) if real else None
    except (TypeError, ValueError):  # ragged nesting, or an object float() refuses
        array = None
    if array is None or array.ndim not in ndims:
        dims = " or ".join(f"{d}-d" for d in ndims)
        what = "integers" if integer else "real numbers"
        raise InvalidInputError(f"{name} must be a {dims} array of {what}")
    if kind in "fO":  # bool and integer entries are finite integers already
        if not np.isfinite(array).all():
            raise InvalidInputError(f"{name} contains NaN or infinite values")
        if integer and np.any(array % 1):
            raise InvalidInputError(f"{name} must hold integers")
    return array


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real-valued samples.

    Values are coerced to a 1-d float64 array on construction and must be
    real and finite: complex or non-numeric input and NaN/Inf are rejected
    at ingestion rather than dropped or propagated.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = finite_array("time series", self.values)
        if values.size == 0:
            raise InvalidInputError("time series must be a nonempty 1-d sequence")
        object.__setattr__(self, "values", values)

    @property
    def length(self) -> int:
        return int(self.values.size)
