"""Run every workload, each in a fresh process, and print one table.

    python3 perfbench/all.py --seed 1 --seconds 20

Prints each end-to-end metric with its unit, the failed fraction, the
90th percentile of every detection's reference seconds where a run timed at
least 100, the wall-clock throughput and latency of every detection, and the
report digest.
Exits 1 if any run failed a correctness check (a series raised, or F1 fell
below the workload's floor).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0:1] = [str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            status = 1
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        if len(lines) < 2:
            continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("failed_frac", detail["failed_frac"], "ratio"))
        if "p90_s" in detail["latency"]:
            rows.append(("latency_p90_s", detail["latency"]["p90_s"], "s"))
        rows.append(("wall_series_per_s", detail["wall_series_per_s"], "1/s"))
        wall = detail["wall_latency"]
        rows += [(f"wall_latency_{q}", wall[q], "s") for q in ("p50_s", "p90_s") if q in wall]
        print(f"{name}  (wall latency samples {wall['samples']}, "
              f"f1 floor {detail['f1_floor']}, digest {detail['report_digest']}, "
              f"correct {result['correct']})")
        for metric, value, unit in rows:
            print(f"  {metric:<16} {value:>14.6g} {unit}")
    return status


if __name__ == "__main__":
    sys.exit(main())
