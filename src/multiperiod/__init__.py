"""Multi-periodicity detection for noisy, trended, outlier-laden series."""

from .detector import DetectorConfig, PeriodRecord, PeriodReport, robust_period
from .series import InvalidInputError, TimeSeries
from .synthbench import SCENARIOS, SplitMix64, SyntheticSpec, generate, score

__version__ = "0.1.0"

__all__ = [
    "DetectorConfig",
    "InvalidInputError",
    "PeriodRecord",
    "PeriodReport",
    "SCENARIOS",
    "SplitMix64",
    "SyntheticSpec",
    "TimeSeries",
    "generate",
    "robust_period",
    "score",
]
