"""The quality grid: off-bin periods and red-noise nulls.

Every ``SCENARIOS`` preset has periods that divide N = 1000, so its F1 says
nothing about a period that does not. Here the presets run with periods
(23, 61, 137), and ``single`` with 137 alone, at seeds 0-99 in both modes,
scored by F1 at +/-2%. The nulls are 200 series each at N = 1000 of
Gaussian noise, AR(1) noise with phi = 0.9 and 0.99 and a Gaussian random
walk (numpy seeds 0-199), counting the series that report any period. The
numbers are frozen where they were measured: a change may raise an F1 and
lower a count, never the reverse.
"""

from dataclasses import replace

import numpy as np

from multiperiod import DetectorConfig, TimeSeries, robust_period
from multiperiod.synthbench import SCENARIOS, run_benchmark

OFF_BIN = (23, 61, 137)
# (scenario, robust_mode): F1 over seeds 0-99, floored at 4 decimals
MEASURED_F1 = {
    ("mild", True): 0.9473,
    ("mild", False): 0.9619,
    ("severe", True): 0.8423,
    ("severe", False): 0.8582,
    ("square", True): 0.9062,
    ("square", False): 0.9324,
    ("triangle", True): 0.9208,
    ("triangle", False): 0.9380,
    ("single", True): 0.9898,
    ("single", False): 0.9583,
}
NULL_LENGTH = 1000
NULL_SEEDS = range(200)
# (null, robust_mode): series of 200 that report any period
MEASURED_NULLS = {
    ("Gaussian", True): 0,
    ("Gaussian", False): 0,
    ("AR(1) 0.9", True): 5,
    ("AR(1) 0.9", False): 6,
    ("AR(1) 0.99", True): 4,
    ("AR(1) 0.99", False): 3,
    ("random walk", True): 5,
    ("random walk", False): 2,
}


def off_bin_f1(scenario, robust_mode):
    periods = (137,) if scenario == "single" else OFF_BIN
    spec = replace(SCENARIOS[scenario], periods=periods)
    return run_benchmark(spec, 100, DetectorConfig(robust_mode=robust_mode)).metrics.f1


def ar1(phi, rng):
    e = rng.normal(size=NULL_LENGTH)
    x = np.empty(NULL_LENGTH)
    x[0] = e[0] / np.sqrt(1.0 - phi * phi)  # drawn from the stationary law
    for t in range(1, NULL_LENGTH):
        x[t] = phi * x[t - 1] + e[t]
    return x


DRAWS = {
    "Gaussian": lambda rng: rng.normal(size=NULL_LENGTH),
    "AR(1) 0.9": lambda rng: ar1(0.9, rng),
    "AR(1) 0.99": lambda rng: ar1(0.99, rng),
    "random walk": lambda rng: np.cumsum(rng.normal(size=NULL_LENGTH)),
}


def null_hits(null, robust_mode):
    cfg = DetectorConfig(robust_mode=robust_mode)
    return sum(
        bool(robust_period(TimeSeries(DRAWS[null](np.random.default_rng(seed))), cfg).periods)
        for seed in NULL_SEEDS
    )


def test_off_bin_f1_never_gets_worse():
    f1 = {key: off_bin_f1(*key) for key in MEASURED_F1}
    for (scenario, robust_mode), value in f1.items():
        print(f"{scenario:>9} robust={robust_mode!s:<5} F1 {value:.4f}")
    for key, value in f1.items():
        assert value >= MEASURED_F1[key], (key, value)


def test_null_reports_never_rise():
    hits = {key: null_hits(*key) for key in MEASURED_NULLS}
    for (null, robust_mode), count in hits.items():
        print(f"{null:>12} robust={robust_mode!s:<5} {count}/{len(NULL_SEEDS)}")
    for key, count in hits.items():
        assert count <= MEASURED_NULLS[key], (key, count)
