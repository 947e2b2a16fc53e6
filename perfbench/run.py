"""Run one benchmark workload against the detector in this checkout.

    python3 perfbench/run.py --workload severe --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced run
with ``--trace 1``. The line before it holds the run's detail: environment,
sample counts, F1 and its floor, failed fraction, a digest of the reports and
any error. Exits 1 when a correctness check fails and 2 when the detector's
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Replace this script's own directory so its modules cannot shadow others.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import pin_threads, run_workload  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "multiperiod" / "__init__.py").is_file():
        print(f"no detector source at {ROOT / 'src' / 'multiperiod'}", file=sys.stderr)
        return 2

    pin_threads(os.environ)
    result, detail = run_workload(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        ROOT / ".perfbench",
    )
    for error in detail["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
