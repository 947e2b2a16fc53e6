"""Set-up, the timed closed loop, the traced run and the correctness checks.

One process, one client: each series is sent only after the previous report
came back. Nothing here imports numpy or multiperiod at module level, so
``set_up`` can time the package import itself.

The end-to-end timings are in reference seconds (see ``perfbench.reference``):
each timed step's wall time over the mean of the reference runs around it,
times the reference's nominal seconds. The wall-clock figures are in the
detail line.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from perfbench import reference, spans
from perfbench.workloads import Workload, micro_f1, report_key

ROOT = Path(__file__).resolve().parents[1]

# Set for this process and its children before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "series_per_s": "1/s",
    "latency_p50_s": "s",
    "f1": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "preprocess.busy_s": "s",
    "modwt.busy_s": "s",
    "acf.busy_s": "s",
    "spectral.fisher_busy_s": "s",
    "spectral.periodogram_busy_s": "s",
    "detector.self_s": "s",
    "spectral.admm_bins": "count",
    "modwt.levels_examined": "count",
    "spectral.admm_iters_mean": "count",
    "spectral.admm_iters_max": "count",
    "spectral.admm_unconverged_frac": "ratio",
    "spectral.admm_ns_per_elem_iter": "ns",
    "spectral.fisher_reject_frac": "ratio",
    "acf.reject_frac": "ratio",
    "detector.accept_frac": "ratio",
    "tracing_overhead_frac": "ratio",
}

# The tail percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100

# Gauges set-up, which is mostly the interpreter loading modules.
SETUP_KERNEL = partial(reference.InterpreterKernel, 60000, 0.04)


def pin_threads(env) -> None:
    for var in THREAD_VARS:
        env[var] = "1"


def set_up(workload: Workload):
    """Import the package, build config and filters, run one warm-up detection.

    Returns (package, config, wall seconds, reference seconds); generating
    the warm-up series is not timed. The set-up kernel runs before and after.
    """
    kernel = SETUP_KERNEL()
    before = reference.gauge(kernel)
    start = time.perf_counter()
    import multiperiod as mp
    from multiperiod.modwt import daubechies_filters

    cfg = mp.DetectorConfig(robust_mode=workload.robust)
    daubechies_filters(cfg.wavelet_order)
    built = time.perf_counter() - start
    warmup = mp.generate(workload.warmup_spec(mp))
    start = time.perf_counter()
    mp.robust_period(warmup, cfg)
    wall = built + time.perf_counter() - start
    return mp, cfg, wall, 2.0 * wall / (before + reference.gauge(kernel))


def probe_setup(workload: Workload, count: int) -> list[tuple[float, float]]:
    """``set_up``'s (wall, reference) seconds in ``count`` fresh interpreters."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload.name]
    seconds = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        wall, scaled = proc.stdout.split()[-2:]
        seconds.append((float(wall), float(scaled)))
    return seconds


def latency_summary(samples: list[float]) -> dict[str, float]:
    """Median always; the 90th percentile only from enough samples."""
    out = {"samples": len(samples), "p50_s": statistics.median(samples)}
    if len(samples) >= P90_MIN_SAMPLES:
        out["p90_s"] = statistics.quantiles(samples, n=10)[-1]
    return out


@dataclass
class Loop:
    reports: list  # report_key of each pool series' first detection
    latencies: list[list[float]]  # wall seconds of each pool series' detections
    scaled: list[list[float]]  # the same in reference seconds, with a kernel
    gauges: list[float] = field(default_factory=list)  # reference runs / nominal
    failures: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    wall: float = 0.0


def detect_loop(detect, pool, cfg, stop, kernel=None, batch=1) -> Loop:
    """Detect pool series back to back, cycling, until ``stop(i, elapsed)``.

    With a reference ``kernel``, it runs before the first step and after
    every step of ``batch`` detections; each detection of a step is also
    kept divided by the mean gauge of the two runs around it. ``stop`` is
    asked before every step. A later report of a series that differs from
    its first is a determinism error. A series that raises is counted as
    failed, its traceback kept.
    """
    loop = Loop(
        reports=[None] * len(pool),
        latencies=[[] for _ in pool],
        scaled=[[] for _ in pool],
    )
    clock = time.perf_counter
    if kernel is not None:
        loop.gauges.append(reference.gauge(kernel, clock))
    start = clock()
    i = 0
    while not stop(i, clock() - start):
        step = []
        for _ in range(batch):
            k = i % len(pool)
            t0 = clock()
            try:
                report = detect(pool[k], cfg)
            except Exception:
                loop.failures.append(f"series {k}: {traceback.format_exc()}")
                report = None
            else:
                seconds = clock() - t0
                loop.latencies[k].append(seconds)
                step.append((k, seconds))
            key = report_key(report)
            if i < len(pool):
                loop.reports[k] = key
            elif key != loop.reports[k]:
                loop.errors.append(f"series {k} gave another report on pass {i // len(pool)}")
            i += 1
        if kernel is not None:
            loop.gauges.append(reference.gauge(kernel, clock))
            speed = (loop.gauges[-2] + loop.gauges[-1]) / 2.0
            for k, seconds in step:
                loop.scaled[k].append(seconds / speed)
    loop.wall = clock() - start
    loop.attempted = i
    return loop


def timing(loop: Loop) -> tuple[dict[str, float], dict]:
    """(end-to-end timing metrics, wall-clock figures) of a timed loop.

    The metrics take each series' median detection time in reference
    seconds: series_per_s is the number of series over the sum of those,
    latency_p50_s their median. The wall-clock figures count every
    detection as it ran.
    """
    typical = [statistics.median(times) for times in loop.scaled if times]
    every = [t for times in loop.latencies for t in times]
    metrics = {
        "series_per_s": len(typical) / sum(typical),
        "latency_p50_s": statistics.median(typical),
    }
    raw = {
        "repeats_min": min(len(times) for times in loop.latencies),
        "latency": latency_summary([t for times in loop.scaled for t in times]),
        "wall_series_per_s": len(every) / sum(every),
        "wall_latency": latency_summary(every),
        "gauge": {
            "runs": len(loop.gauges),
            "min": min(loop.gauges),
            "median": statistics.median(loop.gauges),
            "max": max(loop.gauges),
        },
    }
    return metrics, raw


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "client": "closed loop, 1 client, 1 process",
    }


def digest(reports: list) -> str:
    """Short hash of the reports rounded to 6 significant digits."""

    def rounded(value):
        if isinstance(value, float):
            return float(f"{value:.6g}")
        if isinstance(value, list):
            return [rounded(v) for v in value]
        if isinstance(value, dict):
            return {k: rounded(v) for k, v in value.items()}
        return value

    text = json.dumps(rounded(reports), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    probes: int = 4,
) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail).

    Without ``trace`` the pool is detected for ``seconds`` and at least once
    through, and ``probes`` fresh-interpreter set-ups join this process's own
    in the setup_s median; with it, see ``_traced``.
    """
    setups = [] if trace else probe_setup(workload, probes)
    mp, cfg, *own_setup = set_up(workload)
    setups.append(tuple(own_setup))
    specs = workload.specs(mp, seed)
    pool = [mp.generate(spec) for spec in specs]
    detail = {
        "workload": workload.name,
        "seed": seed,
        "series": {"pool": len(pool), "length": workload.length, "robust": workload.robust},
        "environment": environment(),
    }
    errors: list[str] = []
    if trace:
        runs, values, units = _traced(workload, mp, pool, cfg, seconds, detail, errors, out_dir)
    else:
        def done(i, t):
            return i >= len(pool) and t >= seconds

        loop = detect_loop(
            mp.robust_period, pool, cfg, done, workload.reference(), workload.batch
        )
        runs = [loop]
        values, raw = timing(loop)
        detail.update(
            raw,
            setup_wall_s=[wall for wall, _ in setups],
            setup_reference_s=[scaled for _, scaled in setups],
        )
        values |= {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(scaled for _, scaled in setups),
        }
        units = END_TO_END_UNITS

    reports = runs[0].reports
    detected = [None if r is None else [p[0] for p in r["periods"]] for r in reports]
    values["f1"] = f1 = micro_f1(mp, specs, detected)
    if f1 < workload.f1_floor:
        errors.append(f"f1 {f1:.4f} below the floor {workload.f1_floor}")
    failed = sum(len(r.failures) for r in runs)
    attempted = sum(r.attempted for r in runs)
    errors += [e for r in runs for e in r.errors + r.failures]
    detail.update(
        f1=f1,
        f1_floor=workload.f1_floor,
        failed_frac=failed / attempted,
        report_digest=digest(reports),
        errors=errors,
    )
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": u} for name, u in units.items()},
    }
    return result, detail


def _traced(workload, mp, pool, cfg, seconds, detail, errors, out_dir):
    """Whole pool passes untraced for about ``seconds / 2``, then the same traced.

    Whole passes make every count repeat exactly for a seed. The traced
    reports must equal the untraced ones and every layer span must be hit.
    Both runs are gauged by the reference kernel, so the tracing overhead is
    compared in reference seconds.
    """
    k = len(pool)
    kernel = workload.reference()

    def next_pass_overruns(i, t):
        return i >= k and i % k == 0 and t * (i + k) / i >= seconds / 2

    untraced = detect_loop(
        mp.robust_period, pool, cfg, next_pass_overruns, kernel, workload.batch
    )
    count = untraced.attempted
    tracer = spans.Tracer()
    detector = sys.modules["multiperiod.detector"]
    with spans.patched(detector, tracer):
        traced = detect_loop(
            detector.robust_period, pool, cfg, lambda i, t: i >= count, kernel, workload.batch
        )
    values = spans.layer_metrics(tracer, count)
    busy = [sum(t for times in loop.scaled for t in times) for loop in (untraced, traced)]
    values["tracing_overhead_frac"] = busy[1] / busy[0] - 1.0

    calls = tracer.calls()
    detail.update(
        detections=count,
        span_calls={name: calls[name] for name in spans.TRACED_NAMES},
    )
    errors += [f"layer span {n} recorded no calls" for n in spans.TRACED_NAMES if not calls[n]]
    if workload.robust and not values["spectral.admm_bins"]:
        errors.append("a robust workload fit no ADMM bins")
    differ = [i for i, (a, b) in enumerate(zip(traced.reports, untraced.reports)) if a != b]
    if differ:
        errors.append(f"traced reports differ from untraced on series {differ}")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{workload.name}-seed{detail['seed']}.json"
    columns = ["name", "start", "end", "parent", "series", "counts"]
    path.write_text(json.dumps({"detail": detail, "columns": columns, "spans": tracer.rows()}))
    detail["spans_file"] = str(path)
    return [untraced, traced], values, PER_LAYER_UNITS
