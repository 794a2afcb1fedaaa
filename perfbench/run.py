#!/usr/bin/env python3
"""The udham benchmark: one workload, timed end to end, outputs checked.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload {kam_torus,nf_averaging,lab_cli}
                             --seed N --seconds S --trace {0,1}

A run sets the workload up N_SETUP times in fresh interpreters (import udham,
write the inputs), then makes whole passes over the workload's operations:
one warm-up pass, which is checked but not timed, then at least one timed
pass, and more while another still fits in S seconds from the start of the
warm-up.  Every pass's artifacts are checked by `oracles.py`.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are setup_s, wall_s (medians over the
run) and peak_rss_mb; with --trace 1 the run makes one more untraced pass
after the warm-up, then traced passes, and reports the per-layer metrics of
`tracing.metric_names()` per traced pass, with the tracing overhead: median
traced pass minus the untraced one.

kam_torus and nf_averaging run in this process through udham.cli.main;
lab_cli runs every command in a fresh `python -m udham.cli` process, one at
a time.  BLAS gets BLAS_THREADS threads, the whole load.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

N_SETUP = 5
CHILD_TIMEOUT = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup(workload: str, seed: int, run_dir: Path):
    """Set up N_SETUP times in fresh interpreters; keep the last inputs.

    Returns (wall seconds of each set-up, import seconds of each)."""
    walls, imports, written = [], [], None
    for i in range(N_SETUP):
        dest = run_dir / f"setup{i}"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"),
                               workload, str(seed), str(dest)],
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
        files = {p.name: p.read_bytes() for p in sorted(dest.iterdir())}
        if written is not None and files != written:
            raise RuntimeError("two set-ups with one seed wrote different inputs")
        written = files
        if i < N_SETUP - 1:
            shutil.rmtree(dest)
    (run_dir / f"setup{N_SETUP - 1}").rename(run_dir / "inputs")
    return walls, imports


def run_inprocess(ops) -> list:
    from udham import cli
    return [cli.main(argv) for _, argv, _ in ops]


def run_children(ops, run_dir: Path, trace_dir: Path | None) -> list:
    codes = []
    for i, (_, argv, _) in enumerate(ops):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "udham.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "trace_child.py"),
                   str(trace_dir / f"{i}.json"), *argv]
        proc = subprocess.run(cmd, cwd=run_dir, env=child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT)
        codes.append(proc.returncode)
    return codes


class Passes:
    """Whole passes over one workload's operations, each one checked."""

    def __init__(self, workload, seed, run_dir, ops):
        self.workload, self.seed, self.run_dir, self.ops = workload, seed, run_dir, ops
        self.attempted = self.failed = 0
        self.failures = []
        self.failed_ops = set()
        self.child_traces = []

    def one(self, traced: bool) -> float:
        shutil.rmtree(self.run_dir / workloads.PASS_DIR, ignore_errors=True)
        trace_dir = None
        if traced and self.workload == "lab_cli":
            trace_dir = self.run_dir / "trace" / str(len(self.child_traces))
            trace_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        if self.workload == "lab_cli":
            codes = run_children(self.ops, self.run_dir, trace_dir)
        else:
            codes = run_inprocess(self.ops)
        wall = time.perf_counter() - t0
        self.attempted += len(self.ops)
        checks = oracles.check_pass(self.workload, self.run_dir, self.seed)
        for (name, _, expected), code in zip(self.ops, codes):
            msgs = checks.get(name, [])
            if code != expected or oracles.is_known_fault(name, msgs):
                self.failed += 1
                self.failed_ops.add(f"{name}: exit {code} (expected {expected}); {msgs}")
            else:
                self.failures += msgs
        if trace_dir is not None:
            self.child_traces += [json.loads((trace_dir / f"{i}.json").read_text())["trace"]
                                  for i in range(len(self.ops))
                                  if (trace_dir / f"{i}.json").exists()]
        return wall

    def repeat(self, deadline: float, traced: bool) -> list:
        """One pass, then more while one more of the last pass's length ends
        before the perf_counter time deadline."""
        walls = []
        while True:
            walls.append(self.one(traced))
            if time.perf_counter() + walls[-1] > deadline:
                return walls


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "udham" / "__init__.py").is_file():
        print(f"no udham sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = HERE / "out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_walls, import_times = setup(args.workload, args.seed, run_dir)
    ops = json.loads((run_dir / "inputs" / "operations.json").read_text())
    if args.workload != "lab_cli":
        sys.path.insert(0, str(SRC))
        import udham
        if Path(udham.__file__).resolve().parent != (SRC / "udham").resolve():
            print(f"udham imported from {udham.__file__}, not {SRC}", file=sys.stderr)
            return 2
    os.chdir(run_dir)
    passes = Passes(args.workload, args.seed, run_dir, ops)

    # the first in-process pass runs up to 15% slower than later ones; every
    # workload makes it untimed, so that wall_s is a median of warm passes
    # however many of them fit
    deadline = time.perf_counter() + args.seconds
    warm = passes.one(traced=False)
    if args.trace:
        base = passes.one(traced=False)
        tracer = tracing.Tracer()
        if args.workload != "lab_cli":
            tracing.install(tracer)
        walls = passes.repeat(deadline, traced=True)
        snap = tracing.merge(passes.child_traces + [tracer.snapshot()])
        metrics = tracing.metrics(snap, len(walls), statistics.median(import_times),
                                  statistics.median(walls) - base)
    else:
        walls = passes.repeat(deadline, traced=False)
        who = resource.RUSAGE_CHILDREN if args.workload == "lab_cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
        }
    print(f"pass walls (s): warm-up {warm:.3f}, timed {[round(w, 3) for w in walls]}",
          file=sys.stderr)
    for msg in sorted(passes.failed_ops):
        print(f"OPERATION FAILED: {msg}", file=sys.stderr)
    for msg in passes.failures[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not passes.failures, "attempted": passes.attempted,
                      "failed": passes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
