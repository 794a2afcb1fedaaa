#!/usr/bin/env python3
"""State what a change moved: the artifacts of two checkouts, run by run.

Usage (from the root of a checkout):
    python3 tools/compare.py PARENT CHANGE --outdir DIR [--only GROUP ...]

PARENT and CHANGE are the roots of two checkouts (for example the parent
commit from `git archive` and the working tree).  Every argv runs as
`python -m udham.cli ARGV` in a fresh process against that side's `src/`,
in DIR/<side>/<group>, the only place the tool writes.  The groups:

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
side holds counts as 0 on the other).  Exits 0 when every exit code and
every artifact agree, 1 otherwise.
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
    """Run each argv in a fresh process in workdir; their exit codes."""
    if workdir.exists():
        raise SystemExit(f"{workdir} exists: give a fresh --outdir")
    workdir.mkdir(parents=True)
    if inputs is not None:
        workloads.write_inputs(*inputs, workdir / "inputs")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    codes = []
    for argv in argvs:
        args = [a for arg in argv
                for a in (sorted(glob.glob(arg, root_dir=workdir)) if "*" in arg else [arg])]
        proc = subprocess.run([sys.executable, "-m", "udham.cli"] + args, cwd=workdir,
                              env=env, capture_output=True, timeout=RUN_TIMEOUT)
        codes.append(proc.returncode)
    return codes


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
        codes = [run_group(root, d, inputs, argvs) for root, d in zip((parent, change), dirs)]
        for argv, cp, cc in zip(argvs, *codes):
            if cp != cc:
                same = False
                print(f"{group} {argv[0]}: exit {cp} (parent) vs {cc} (change)")
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
