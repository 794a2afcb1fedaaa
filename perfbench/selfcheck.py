#!/usr/bin/env python3
"""Show that every oracle rejects a deliberately corrupted artifact.

Usage (from the root of a checkout):  python3 perfbench/selfcheck.py

Runs each workload once through run.py (seed 1, --seconds 0), then, for
every case below, copies the artifacts of one operation, corrupts the copy
in one place and checks it again with that operation's oracle.  An oracle rejects the copy when it reports a failure that
it did not report on the untouched artifacts (the untouched `dioph` output
already fails on the program's known psi(144) fault).  Exits 0 when every
oracle accepts the untouched artifacts, up to known faults, and rejects
every corrupted copy.
"""

from __future__ import annotations

import csv
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles as O  # noqa: E402

SEED = 1


def _edit_csv(path: Path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _set_cell(path: Path, row: int, col: str, fn):
    def edit(rows):
        j = rows[0].index(col)
        rows[row + 1][j] = repr(fn(float(rows[row + 1][j])))
        return rows
    _edit_csv(path, edit)


def _set_manifest(path: Path, key: str, value: str):
    lines = path.read_text().splitlines()
    lines = [f"{key} = {value}" if ln.startswith(f"{key} = ") else ln for ln in lines]
    path.write_text("\n".join(lines) + "\n")


def _scale_fts(path: Path, factor: float):
    lines = path.read_text().splitlines()
    out = lines[:2]
    for ln in lines[2:]:
        parts = ln.split()
        parts[-2] = repr(float(parts[-2]) * factor)
        parts[-1] = repr(float(parts[-1]) * factor)
        out.append(" ".join(parts))
    path.write_text("\n".join(out) + "\n")


def _converging_sigmas(path: Path):
    def edit(rows):
        js, jp = rows[0].index("sigma_i"), rows[0].index("partial_sum")
        total = 0.0
        for i, row in enumerate(rows[1:]):
            sigma = 0.002 * 0.5 ** i
            total += sigma
            row[js], row[jp] = repr(sigma), repr(total)
        return rows
    _edit_csv(path, edit)


def _scale_resonant_f(path: Path, factor: float):
    """Scale every k = (0, k2 != 0) line of resonant.fts, i.e. [f]_v."""
    lines = path.read_text().splitlines()
    out = lines[:2]
    for ln in lines[2:]:
        parts = ln.split()
        if parts[0] == "0" and parts[1] != "0":
            parts[-2] = repr(float(parts[-2]) * factor)
            parts[-1] = repr(float(parts[-1]) * factor)
        out.append(" ".join(parts))
    path.write_text("\n".join(out) + "\n")


# (operation, workload, file in the operation's artifact dir, corruption,
#  description)
CASES = [
    ("kam", "kam_torus", "embedding_E1.fts",
     lambda p: _scale_fts(p, 1.01), "embedding E1 scaled by 1.01"),
    ("nf", "nf_averaging", "resonant.fts",
     lambda p: p.write_text(p.read_text() + "1 0 0 0 1e-12 0.0\n"),
     "k.Tv != 0 mode k = (1, 0) inserted into resonant.fts"),
    ("nf", "nf_averaging", "resonant.fts",
     lambda p: _scale_resonant_f(p, 1.01),
     "every k1 = 0, k2 != 0 mode of resonant.fts scaled by 1.01"),
    ("weights", "lab_cli", "weights.csv",
     lambda p: _set_cell(p, 10, "M_l_log", lambda x: x * (1 + 1e-9)),
     "M_10 nudged by 1e-9 relative"),
    ("dioph", "lab_cli", "psi.csv",
     lambda p: _set_cell(p, 49, "psi", lambda x: x * (1 + 1e-9)),
     "psi(50) nudged by 1e-9 relative"),
    ("brtest_gevrey", "lab_cli", "brtest.csv",
     lambda p: _set_cell(p, 3, "sigma_i", lambda x: 1.5 * x), "sigma_3 scaled by 1.5"),
    ("brtest_expsqrt", "lab_cli", "brtest.csv",
     _converging_sigmas, "sigma_i replaced by a convergent geometric sequence"),
    ("nf_toy", "lab_cli", "manifest.txt",
     lambda p: _set_manifest(p, "cert_after", repr(O.read_manifest(p)["cert_before"])),
     "cert_after set to cert_before"),
    ("diffuse", "lab_cli", "drift.csv",
     lambda p: _set_cell(p, 5, "drift_l1", lambda x: x * 1.001), "one drift.csv row changed"),
    ("ms_exact", "lab_cli", "drift.csv",
     lambda p: _set_cell(p, -2, "I1", lambda x: 0.99), "final I1 set to 0.99"),
    ("ms_pendulum", "lab_cli", "manifest.txt",
     lambda p: _set_manifest(p, "sync_passed", "False"), "sync_passed set to False"),
    ("bessi", "lab_cli", "bessi.csv",
     lambda p: _set_cell(p, -2, "growth", lambda x: 0.5), "last growth set to 0.5"),
    ("report", "lab_cli", "report.csv",
     lambda p: _edit_csv(p, lambda rows: rows[:-1]), "last report row dropped"),
]


def main() -> int:
    root = HERE.parent
    for workload in ("kam_torus", "nf_averaging", "lab_cli"):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(SEED), "--seconds", "0", "--trace", "0"],
                              cwd=root, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            print(f"{workload}: run failed\n{proc.stderr}")
            return 1
    ok = True
    scratch = HERE / "out" / "selfcheck"
    shutil.rmtree(scratch, ignore_errors=True)
    table = O.checks(SEED)
    for i, (op, workload, fname, corrupt, what) in enumerate(CASES):
        artifact = HERE / "out" / f"{workload}-{SEED}" / O.W.PASS_DIR / op
        original = set(table[op](artifact))
        if original and not O.is_known_fault(op, sorted(original)):
            print(f"FAIL     {op}: rejects the untouched artifacts: {sorted(original)}")
            ok = False
            continue
        copy = scratch / f"{i}-{op}"
        shutil.copytree(artifact, copy)
        corrupt(copy / fname)
        new = [m for m in table[op](copy) if m not in original]
        if new:
            print(f"REJECTED {op}: {what} -> {new[0]}")
        else:
            print(f"FAIL     {op}: accepted a copy with {what}")
            ok = False
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
