"""The detection map: how the default detector answers a unit sine.

Each series is sin(2*pi*t/P) for P = 8, 10, ..., 250 at N = 1000 and 2000,
noise-free and with numpy seed 0's Gaussian noise of variance 0.5 added,
detected with the default config and with ``robust_mode=False``. An answer
is scored at +/-2% as right (one period, and it is right), empty, several
periods with one right, or none right. The counts are frozen where they
were measured: a change may add right answers and remove wrong ones, never
the reverse.
"""

import numpy as np

from multiperiod import DetectorConfig, TimeSeries, robust_period

PERIODS = range(8, 251, 2)
CLASSES = ("right", "empty", "several, one right", "none right")
# (N, noisy, robust_mode): counts per class
MEASURED = {
    (1000, False, True): (81, 37, 0, 4),
    (1000, True, True): (80, 36, 0, 6),
    (2000, False, True): (112, 10, 0, 0),
    (2000, True, True): (112, 10, 0, 0),
    (1000, False, False): (83, 36, 0, 3),
    (1000, True, False): (83, 33, 0, 6),
    (2000, False, False): (114, 8, 0, 0),
    (2000, True, False): (112, 10, 0, 0),
}


def classify(lengths, period):
    """Index into CLASSES of one answer to a sine of ``period``."""
    right = [abs(length - period) <= 0.02 * period for length in lengths]
    if not right:
        return 1
    if right == [True]:
        return 0
    return 2 if any(right) else 3


def detection_map(n, noisy, robust_mode):
    t = np.arange(n)
    noise = np.sqrt(0.5) * np.random.default_rng(0).normal(size=n) if noisy else 0.0
    cfg = DetectorConfig(robust_mode=robust_mode)
    counts = [0] * len(CLASSES)
    for period in PERIODS:
        report = robust_period(TimeSeries(np.sin(2 * np.pi * t / period) + noise), cfg)
        counts[classify(report.period_lengths, period)] += 1
    return counts


def test_detection_map_never_gets_worse():
    maps = {key: detection_map(*key) for key in MEASURED}
    header = f"\n{'N':>5} {'noise':>6} {'robust':>6} "
    print(header + " ".join(f"{name:>18}" for name in CLASSES))
    for (n, noisy, robust_mode), counts in maps.items():
        row = f"{n:>5} {'0.5' if noisy else '0':>6} {str(robust_mode):>6} "
        print(row + " ".join(f"{c:>18}" for c in counts))
    for key, counts in maps.items():
        assert sum(counts) == len(PERIODS)
        assert counts[0] >= MEASURED[key][0], key
        assert counts[3] <= MEASURED[key][3], key
