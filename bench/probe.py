"""Set-up probe for the levbounds benchmark.

One fresh process imports ``levbounds``, builds the inputs of a
workload's first pass from the seed and finishes one warm-up evaluation.
``run.py`` times the whole process from outside and reports the median
over several probes as ``setup_s``.

    python3 bench/probe.py --workload sweep --seed 1
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    WORKLOADS[args.workload](args.seed).inputs(0)
