#!/usr/bin/env python3
"""State what a change moved: the artifacts of two checkouts, run by run.

Usage (from the root of a checkout):
    python3 tools/compare.py PARENT CHANGE --outdir DIR [--only GROUP ...]

PARENT and CHANGE are the roots of two checkouts (for example the parent
commit from `git archive` and the working tree).  Every argv runs `udham.cli`
as `__main__`, as `python -m udham.cli ARGV` does, in a fresh process against
that side's `src/`, in DIR/<side>/<group>, and once more under tracemalloc in
DIR/<side>/<group>.traced; DIR is the only place the tool writes.
The groups:

  kam_torus                perfbench's KAM_ARGV;
  nf_averaging_seed1..3    NF_ARGV on the Hamiltonian that perfbench's
                           `workloads.write_inputs` writes for that seed;
  lab_cli                  LAB_OPS, then `report` over their manifests;
  readme                   the `udham ...` lines of README.md, in order.

The argv lists are imported read-only from perfbench/workloads.py and read
from README.md of the checkout that holds this tool.  For every artifact
the tool prints "identical", or the largest relative move |p - c| / max(|p|,
|c|) of each numeric field that moved and the name of each text field that
changed.  `outdir` lines are ignored.  A field is a CSV column, a manifest
key, or the real or imaginary part of a `.fts` coefficient (a mode only one
side holds counts as 0 on the other).

For every argv the tool also prints the udham modules in `sys.modules` at
the exit of each side's process and their source lines (`wc -l`; `cli.py`,
which runs as `__main__`, is not counted), and per group their sum.  These
counts are deterministic; they do not enter the verdict.  So are the calls
it prints per argv and side of each function in COUNTED: a `sys.setprofile`
hook in the child counts the "call" events of those udham functions, and
loads no module.  The same hook reads the (a, n, axis) of each call of
numpy's private `numpy.fft._pocketfft._raw_fft`, the one 1-D transform behind
every numpy FFT, and the tool prints per argv and side the FFT calls, their
points (lines * n) and their work (lines * n log2 n); where numpy has no
such function the child prints "n/a".  These are deterministic and outside
the verdict too.  The child starts no tracemalloc: its tables would raise
the peak it reports.  Last, each side's child reports its minor page faults
(`getrusage(RUSAGE_SELF)`) and its peak resident set (`VmHWM` of
/proc/self/status), both read after the modules are listed, which the tool
prints per argv; these vary a little from run to run and do not enter the
verdict either.  The peak is not `ru_maxrss`: Linux carries the spawning
process's high-water mark into an exec'd child's `ru_maxrss`, so that would
read this tool's own peak for every child that stays below it.  The second
child of each argv, TRACED_CHILD, runs the same argv with tracemalloc on from
its first line, and the tool prints per argv and side its traced peak (the
most bytes that Python and numpy held at once), outside the verdict too; it
runs apart because tracemalloc's own tables would raise the first child's
peak resident set.  Exits 0 when every exit code and every artifact agree,
1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import glob
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SIDES = ("parent", "change")
NF_SEEDS = (1, 2, 3)
RUN_TIMEOUT = 600
# the functions whose calls the child counts, as module.function
COUNTED = ("series.norm_upper", "series.poisson_bracket", "series.product",
           "series.derivative_grid", "flows.compose_angle", "flows.apply_affine")
# `python -m udham.cli`, which at exit lists the udham modules it loaded, the
# calls of each COUNTED function, its FFTs and its minor faults and peak RSS (in KiB)
CHILD = ("import atexit, math, runpy, sys\n"
         f"calls = dict.fromkeys({COUNTED!r}, 0)\n"
         "owner = {c.split('.')[1]: c for c in calls}\n"
         "fft = [0, 0, 0.0]\n"
         "def count(frame, event, arg):\n"
         "    if event != 'call':\n"
         "        return\n"
         "    name, module = frame.f_code.co_name, frame.f_globals.get('__name__')\n"
         "    if name == '_raw_fft' and module == 'numpy.fft._pocketfft':\n"
         "        a, n, axis = (frame.f_locals[v] for v in ('a', 'n', 'axis'))\n"
         "        lines = a.size // max(a.shape[axis], 1)\n"
         "        fft[0] += 1\n"
         "        fft[1] += lines * n\n"
         "        fft[2] += lines * n * math.log2(n)\n"
         "    c = owner.get(name)\n"
         "    if c and module == 'udham.' + c.split('.')[0]:\n"
         "        calls[c] += 1\n"
         "def report():\n"
         "    sys.setprofile(None)\n"
         "    print('udham modules:', *sorted(m for m in sys.modules\n"
         "          if m.split('.')[0] == 'udham'), file=sys.stderr)\n"
         "    print('udham calls:', *(f'{c}={n}' for c, n in calls.items()), file=sys.stderr)\n"
         "    pocketfft = sys.modules.get('numpy.fft._pocketfft')\n"
         "    known = pocketfft is None or hasattr(pocketfft, '_raw_fft')\n"
         "    print('udham fft:', f'calls={fft[0]} points={fft[1]} work={fft[2]:.4e}'\n"
         "          if known else 'n/a', file=sys.stderr)\n"
         "    import resource\n"
         "    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
         "    with open('/proc/self/status') as f:\n"
         "        hwm = next(ln.split()[1] for ln in f if ln.startswith('VmHWM:'))\n"
         "    print('udham rusage:', faults, hwm, file=sys.stderr)\n"
         "atexit.register(report)\n"
         "sys.setprofile(count)\n"
         "runpy.run_module('udham.cli', run_name='__main__', alter_sys=True)\n")
# the same run with tracemalloc on, which at exit prints its traced peak in bytes
TRACED_CHILD = ("import atexit, runpy, sys, tracemalloc\n"
                "atexit.register(lambda: print('udham traced peak:',\n"
                "                tracemalloc.get_traced_memory()[1], file=sys.stderr))\n"
                "tracemalloc.start()\n"
                "runpy.run_module('udham.cli', run_name='__main__', alter_sys=True)\n")
LOADED = re.compile(r"^udham modules:(.*)$", re.M)
CALLS = re.compile(r"^udham calls:(.*)$", re.M)
FFT = re.compile(r"^udham fft: (.*)$", re.M)
RUSAGE = re.compile(r"^udham rusage: (\d+) (\d+)$", re.M)
TRACED = re.compile(r"^udham traced peak: (\d+)$", re.M)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def readme_argvs() -> list:
    """The argv of every `udham ...` line of README.md, comments dropped."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(ln.split("#")[0])[1:] for ln in lines if ln.startswith("udham ")]


def groups() -> dict:
    """group -> (perfbench workload whose inputs it needs and seed, or None; argvs)."""
    ops = lambda name: [argv for _, argv, _ in workloads.operations(name)]
    out = {"kam_torus": (None, ops("kam_torus"))}
    out.update({f"nf_averaging_seed{s}": (("nf_averaging", s), ops("nf_averaging"))
                for s in NF_SEEDS})
    out["lab_cli"] = (None, ops("lab_cli"))
    out["readme"] = (None, readme_argvs())
    return out


def run_group(checkout: Path, workdir: Path, inputs, argvs) -> list:
    """Run each argv in a fresh process in workdir, and again under
    tracemalloc in workdir.traced; the exit code, the imported udham
    modules, the counted calls, (minor faults, peak RSS in KiB), the FFT
    counters and the traced peak in bytes of each."""
    traced_dir = workdir.with_name(workdir.name + ".traced")
    for d in (workdir, traced_dir):
        if d.exists():
            raise SystemExit(f"{d} exists: give a fresh --outdir")
        d.mkdir(parents=True)
        if inputs is not None:
            workloads.write_inputs(*inputs, d / "inputs")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    runs = []
    for argv in argvs:
        args = [a for arg in argv
                for a in (sorted(glob.glob(arg, root_dir=workdir)) if "*" in arg else [arg])]
        proc, traced = (subprocess.run([sys.executable, "-c", child] + args, cwd=cwd, env=env,
                                       capture_output=True, text=True, timeout=RUN_TIMEOUT)
                        for child, cwd in ((CHILD, workdir), (TRACED_CHILD, traced_dir)))
        runs.append((proc.returncode, LOADED.findall(proc.stderr)[-1].split(),
                     CALLS.findall(proc.stderr)[-1].strip(),
                     tuple(map(int, RUSAGE.findall(proc.stderr)[-1])),
                     FFT.findall(proc.stderr)[-1], int(TRACED.findall(traced.stderr)[-1])))
    return runs


def source_lines(checkout: Path, modules) -> int:
    """Lines of the package's source files of these modules, cli.py aside."""
    pkg = checkout / "src" / "udham"
    files = [pkg / ("__init__.py" if m == "udham" else m.split(".", 1)[1] + ".py")
             for m in modules if m != "udham.cli"]
    return sum(f.read_bytes().count(b"\n") for f in files)


def _tokens(text: str):
    """(text with each number replaced by '#', [numbers])."""
    return NUMBER.sub("#", text), [float(x) for x in NUMBER.findall(text)]


def records(path: Path) -> dict:
    """record -> {field: cell text} of one artifact, `outdir` dropped."""
    text = path.read_text()
    if path.suffix == ".csv":
        rows = list(csv.reader(text.splitlines()))
        return {r: dict(zip(rows[0], row)) for r, row in enumerate(rows[1:])} if rows else {}
    if path.suffix == ".fts":
        lines = text.splitlines()
        out = {"header": {"header": "\n".join(lines[:2])}}
        for ln in lines[2:]:
            parts = ln.split()
            out[tuple(parts[:-2])] = {"re": parts[-2], "im": parts[-1]}
        return out
    out = {}
    for i, ln in enumerate(text.splitlines()):
        key = ln.split(" = ", 1)[0] if " = " in ln else f"line {i + 1}"
        if key != "outdir":
            out[key] = {key: ln}
    return out


def field_moves(p: Path, c: Path) -> dict:
    """field -> largest relative move (a float) or what else changed (a
    string) between two artifacts."""
    rp, rc = records(p), records(c)
    moves = {}
    for rec in list(rp) + [r for r in rc if r not in rp]:
        a, b = rp.get(rec), rc.get(rec)
        if a is None or b is None:
            if p.suffix != ".fts":
                moves[f"record {rec}"] = f"only in {'change' if a is None else 'parent'}"
                continue
            a = a or {"re": "0.0", "im": "0.0"}
            b = b or {"re": "0.0", "im": "0.0"}
        for field in list(a) + [f for f in b if f not in a]:
            (sa, na), (sb, nb) = _tokens(a.get(field, "")), _tokens(b.get(field, ""))
            if sa != sb or len(na) != len(nb):
                moves[field] = "changed"
                continue
            for x, y in zip(na, nb):
                if moves.get(field) == "changed" or x == y or (math.isnan(x) and math.isnan(y)):
                    continue
                rel = abs(x - y) / max(abs(x), abs(y))
                moves[field] = max(moves.get(field, 0.0), math.inf if math.isnan(rel) else rel)
    return {f: m for f, m in moves.items() if m}


def describe(p: Path, c: Path) -> str:
    if p.read_bytes() == c.read_bytes():
        return "identical"
    moves = field_moves(p, c)
    if not moves:
        return "identical"
    return ", ".join(f"{f} {m}" if isinstance(m, str) else f"{f} {m:.3g}"
                     for f, m in sorted(moves.items(), key=lambda fm: str(fm[0])))


def compare(parent: Path, change: Path, outdir: Path, only=None) -> bool:
    """Run every selected group on both sides and print what moved; True
    when every exit code and every artifact agree."""
    same = True
    for group, (inputs, argvs) in groups().items():
        if only and group not in only:
            continue
        dirs = [outdir / side / group for side in SIDES]
        roots = (parent, change)
        runs = [run_group(root, d, inputs, argvs) for root, d in zip(roots, dirs)]
        totals = [0, 0]
        for argv, *sides in zip(argvs, *runs):
            (cp, _, calls_p, use_p, fft_p, peak_p), (cc, _, calls_c, use_c, fft_c, peak_c) = sides
            if cp != cc:
                same = False
                print(f"{group} {argv[0]}: exit {cp} (parent) vs {cc} (change)")
            loaded = []
            for i, (root, (_, modules, *_)) in enumerate(zip(roots, sides)):
                lines = source_lines(root, modules)
                totals[i] += lines
                names = " ".join(m.removeprefix("udham.") for m in modules)
                loaded.append(f"{SIDES[i]} {lines} lines ({names})")
            print(f"{group} {argv[0]} imports: {'; '.join(loaded)}")
            print(f"{group} {argv[0]} calls: parent {calls_p}; change {calls_c}")
            print(f"{group} {argv[0]} fft: parent {fft_p}; change {fft_c}")
            print(f"{group} {argv[0]} rusage: " + "; ".join(
                f"{side} minor_faults={faults} max_rss_mb={rss / 1024:.1f}"
                for side, (faults, rss) in zip(SIDES, (use_p, use_c))))
            print(f"{group} {argv[0]} traced: " + "; ".join(
                f"{side} peak_mib={peak / 2 ** 20:.3f}"
                for side, peak in zip(SIDES, (peak_p, peak_c))))
        print(f"{group} imports summed: parent {totals[0]} lines; change {totals[1]} lines")
        files = sorted({f.relative_to(d) for d in dirs for f in d.rglob("*")
                        if f.is_file() and "inputs" not in f.relative_to(d).parts})
        for rel in files:
            p, c = (d / rel for d in dirs)
            if not (p.exists() and c.exists()):
                verdict = f"only in {'parent' if p.exists() else 'change'}"
            else:
                verdict = describe(p, c)
            same = same and verdict == "identical"
            print(f"{group}/{rel}: {verdict}")
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--outdir", type=Path, required=True)
    ap.add_argument("--only", nargs="+", choices=list(groups()),
                    help="run only these groups (default: all)")
    args = ap.parse_args(argv)
    return 0 if compare(args.parent.resolve(), args.change.resolve(),
                        args.outdir.resolve(), args.only) else 1


if __name__ == "__main__":
    sys.exit(main())
