"""One set-up of a workload in a fresh interpreter: import udham, then
write the workload's inputs.  Prints {"import_s": ...} as JSON.

Usage: python3 perfbench/setup_child.py <workload> <seed> <dest>
(udham is found through PYTHONPATH, which run.py sets to the checkout's src)
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import udham  # noqa: E402,F401

import_s = time.perf_counter() - t0

import workloads  # noqa: E402

workloads.write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(json.dumps({"import_s": import_s}))
