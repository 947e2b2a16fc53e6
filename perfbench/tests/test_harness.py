"""The benchmark's own machinery: percentile rule, metric lists, smoke runs."""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_p90_needs_ten_samples_beyond_it():
    assert "p90_s" not in harness.latency_summary([0.1] * 99)
    summary = harness.latency_summary([float(i) for i in range(1, 101)])
    assert summary["samples"] == 100
    assert summary["p50_s"] == 50.5
    assert 90.0 < summary["p90_s"] < 91.0


def test_timing_takes_each_series_median_reference_time():
    loop = harness.Loop(
        reports=[None, None],
        latencies=[[3.0, 1.0], [2.0, 4.0, 6.0]],
        scaled=[[1.0, 3.0], [2.0, 9.0, 4.0]],
        gauges=[1.0, 2.0, 1.5],
        wall=20.0,
    )
    metrics, raw = harness.timing(loop)
    assert metrics == {"series_per_s": 2 / 6.0, "latency_p50_s": 3.0}
    assert raw["repeats_min"] == 2
    assert raw["latency"] == {"samples": 5, "p50_s": 3.0}
    assert raw["wall_series_per_s"] == 5 / 16.0
    assert raw["wall_latency"] == {"samples": 5, "p50_s": 3.0}
    assert raw["gauge"] == {"runs": 3, "min": 1.0, "median": 1.5, "max": 2.0}


class CountingKernel:
    nominal_s = 1e-3

    def __init__(self):
        self.runs = 0

    def __call__(self):
        self.runs += 1


def test_each_step_is_divided_by_the_gauges_around_it():
    kernel = CountingKernel()
    loop = harness.detect_loop(
        lambda series, cfg: None, ["a", "b", "c"], None, lambda i, t: i >= 7, kernel, batch=2
    )
    steps = 4  # the stop rule is asked before each step of two
    assert loop.attempted == 2 * steps and kernel.runs == steps + 1
    assert len(loop.gauges) == steps + 1
    order = [i % 3 for i in range(2 * steps)]
    seen = [0, 0, 0]
    for i, k in enumerate(order):
        speed = (loop.gauges[i // 2] + loop.gauges[i // 2 + 1]) / 2.0
        wall = loop.latencies[k][seen[k]]
        assert loop.scaled[k][seen[k]] == wall / speed
        seen[k] += 1


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for key, units in (("end_to_end", harness.END_TO_END_UNITS),
                       ("per_layer", harness.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == units


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    tiny = replace(WORKLOADS[name], length=400, pool=2, f1_floor=0.0)
    result, detail = harness.run_workload(tiny, 5, 0.01, trace, tmp_path, probes=0)
    assert result["correct"], detail["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    key = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[key]]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert all(detail["span_calls"].values())
        assert Path(detail["spans_file"]).is_file()


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_the_result_line_last():
    proc = run_cli(ROOT, "--workload", "plain", "--seed", "2", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]


def test_cli_fails_without_the_detector_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "--workload", "mild", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
