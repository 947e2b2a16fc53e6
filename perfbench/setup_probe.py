"""Time the benchmark's set-up once in this fresh interpreter.

Prints its wall seconds and its reference seconds.

    python3 perfbench/setup_probe.py <workload>
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import pin_threads, set_up  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    pin_threads(os.environ)
    print(*map(repr, set_up(WORKLOADS[sys.argv[1]])[2:]))
