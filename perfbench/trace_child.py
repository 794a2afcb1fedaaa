"""Run one udham CLI command in this fresh process with per-layer tracing.

Usage: python3 perfbench/trace_child.py <trace.json> <udham argv...>
Writes {"import_s", "exit", "trace"} to trace.json and exits with the
command's exit code.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import udham.cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracing.install(tracer)
code = udham.cli.main(sys.argv[2:])
Path(sys.argv[1]).write_text(json.dumps({"import_s": import_s, "exit": code,
                                         "trace": tracer.snapshot()}))
sys.exit(code)
