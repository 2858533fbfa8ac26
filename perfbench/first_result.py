"""Set-up probe: a fresh interpreter imports the package, builds the
workload's inputs, evaluates the first item and prints its value.

    python3 perfbench/first_result.py WORKLOAD SEED [--smoke]

run.py times it from process start to the printed line (setup_s).
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

items = workloads.build(sys.argv[1], int(sys.argv[2]), small="--smoke" in sys.argv[3:])
print(repr(workloads.evaluate(items[0]).value), flush=True)
