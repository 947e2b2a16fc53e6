"""The benchmark's workloads and the inputs each one draws from its seed.

A run detects a pool of distinct series, generated from the workload seed
before timing starts, back to back and cycling through the pool. One pass
always completes, so the correctness figures (F1, report digest, span counts)
depend on the seed alone. Each pool is large enough that the series' own
spread of cost (about 10% from one noise draw to the next) averages out of
the timing metrics between seeds, and small enough that a run gets through it
at least once. Each timed step (``batch`` detections) sits between two runs
of the workload's reference kernel, see ``perfbench.reference``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from perfbench.reference import SmallKernel, StreamKernel

# Short enough to stay cheap, long enough (4 cycles of the longest period) for
# every scenario: warming up only has to load lazy imports and first-call caches.
WARMUP_LENGTH = 400


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # key of multiperiod.SCENARIOS
    length: int
    robust: bool
    pool: int  # distinct series per run
    f1_floor: float  # a run below this F1 fails its correctness check
    batch: int  # detections timed between two reference runs
    reference: partial  # builds the reference kernel

    def specs(self, mp, seed: int) -> list:
        """One generator spec per pool series; series seeds stream from ``seed``.

        Workloads sharing a scenario and length share their leading series.
        """
        stream = mp.SplitMix64(seed)
        base = replace(mp.SCENARIOS[self.scenario], length=self.length)
        return [replace(base, seed=stream.next_uint64()) for _ in range(self.pool)]

    def warmup_spec(self, mp):
        return replace(mp.SCENARIOS[self.scenario], length=WARMUP_LENGTH, seed=0)


# Why each workload is here is recorded in BENCHMARK.json; in short, mild and
# severe are ADMM-bound at two batch sizes and plain bypasses ADMM on severe's
# inputs. Each reference kernel does the kind of work its workload spends
# its time on: ADMM sweeps at the workload's batch size, or short numpy calls.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mild", "mild", 1000, robust=True, pool=24, f1_floor=0.95,
                 batch=1, reference=partial(StreamKernel, 96, 2000, 10, 0.04)),
        Workload("severe", "severe", 1000, robust=True, pool=16, f1_floor=0.9,
                 batch=1, reference=partial(StreamKernel, 512, 2000, 6, 0.15)),
        Workload("plain", "severe", 1000, robust=False, pool=256, f1_floor=0.95,
                 batch=8, reference=partial(SmallKernel, 1000, 100, 0.008)),
    )
}


def report_key(report) -> dict | None:
    """Everything a report says about its input, exact; None for a failure."""
    if report is None:
        return None
    return {
        "periods": [
            [r.length, r.level, r.p_value, r.variance_share] for r in report.periods
        ],
        "levels_examined": report.levels_examined,
        "degenerate": report.degenerate,
    }


def micro_f1(mp, specs, detected, tolerance: float = 0.02) -> float:
    """F1 over all series at a relative tolerance.

    ``detected`` holds each series' period lengths, or None where the
    detection raised; such a series detects nothing and misses every period.
    """
    matched = found = truth = 0
    for spec, lengths in zip(specs, detected):
        lengths = lengths or []
        periods = [float(p) for p in spec.periods]
        matched += len(mp.score(lengths, periods, tolerance).matched)
        found += len(lengths)
        truth += len(periods)
    precision = matched / found if found else 1.0
    recall = matched / truth if truth else 1.0
    if precision + recall <= 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)
