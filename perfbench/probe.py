"""Time `import genfrac` plus a workload's first op in this fresh interpreter.

Usage: python3 perfbench/probe.py <workload> <seed>

The clock starts before ``import genfrac``, so the node cache is cold.
Prints the seconds.  run.py starts this several times to measure
``setup_s``.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import genfrac  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).first_op()
print(repr(time.perf_counter() - start))
