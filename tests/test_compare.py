"""`tools/compare.py`: a checkout against itself is identical, and a moved
number is named with its relative move."""

import importlib.util
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_head_against_head_is_identical(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                           "--outdir", str(tmp_path), "--only", "kam_torus"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "kam_torus/pass/kam/manifest.txt: identical" in lines
    imports = [ln for ln in lines if " imports" in ln]
    calls = [ln for ln in lines if " calls: " in ln]
    rusage = [ln for ln in lines if " rusage: " in ln]
    fft = [ln for ln in lines if " fft: " in ln]
    traced = [ln for ln in lines if " traced: " in ln]
    assert all(ln.endswith(": identical") for ln in lines
               if ln not in imports + calls + rusage + fft + traced)
    # the import counter: one line per argv and the group's sum, equal on both sides
    assert len(imports) == 2
    for ln in imports:
        parent, change = ln.split(": ", 1)[1].split("; ")
        assert parent.removeprefix("parent ") == change.removeprefix("change "), ln
    assert "kam_torus kam imports: parent " in imports[0] and " lines (udham " in imports[0]
    # the call counters: one line per argv, equal on both sides
    assert len(calls) == 1
    parent, change = calls[0].split(": ", 1)[1].split("; ")
    assert parent.removeprefix("parent ") == change.removeprefix("change ")
    counts = dict(c.split("=") for c in parent.removeprefix("parent ").split())
    assert list(counts) == list(load_tool().COUNTED) and int(counts["series.norm_upper"]) > 0
    # the FFT counters: one line per argv, equal on both sides
    assert len(fft) == 1
    parent, change = fft[0].split(": ", 1)[1].split("; ")
    assert parent.removeprefix("parent ") == change.removeprefix("change "), fft[0]
    counts = dict(c.split("=") for c in parent.removeprefix("parent ").split())
    assert list(counts) == ["calls", "points", "work"] and int(counts["calls"]) > 0
    assert float(counts["work"]) > int(counts["points"]) > 0
    # the resource line: one per argv, each side's minor faults and peak RSS positive
    assert len(rusage) == 1
    for side, part in zip(("parent", "change"), rusage[0].split(": ", 1)[1].split("; ")):
        faults, rss = part.removeprefix(f"{side} ").split()
        assert int(faults.removeprefix("minor_faults=")) > 0, rusage[0]
        assert float(rss.removeprefix("max_rss_mb=")) > 0, rusage[0]
    # the traced peak: one line per argv, equal on both sides within 0.1%
    assert len(traced) == 1
    parent, change = (float(part.split("peak_mib=")[1])
                      for part in traced[0].split(": ", 1)[1].split("; "))
    assert parent > 0 and abs(parent - change) <= 1e-3 * max(parent, change), traced[0]
    assert {p.name for p in tmp_path.iterdir()} == {"parent", "change"}
    assert {p.name for p in (tmp_path / "parent").iterdir()} == {"kam_torus", "kam_torus.traced"}


def test_child_peak_is_its_own(tmp_path):
    # Linux carries the spawning process's high-water mark into an exec'd
    # child's ru_maxrss; `report` loads no numpy, so the peak the child
    # reports of itself stays below this process's own
    (code, modules, _, (_, peak_kib), fft, traced_peak), = load_tool().run_group(
        ROOT, tmp_path / "report", None, [["report"]])
    assert code == 0 and modules == ["udham", "udham.errors"]
    assert fft == "calls=0 points=0 work=0.0000e+00"
    assert traced_peak > 0 and (tmp_path / "report.traced" / "runs" / "report").is_dir()
    assert 0 < peak_kib < resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def test_fft_counters_read_n_a_without_numpys_private_transform(tmp_path):
    # a numpy without `_raw_fft` leaves the counters unknown, not zero
    hide = "import numpy.fft._pocketfft as p\ndel p._raw_fft\n"
    proc = subprocess.run([sys.executable, "-c", hide + load_tool().CHILD, "report",
                           "--outdir", str(tmp_path)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert proc.returncode == 0 and "\nudham fft: n/a\n" in proc.stderr, proc.stderr


def test_moved_fields_are_named(tmp_path):
    tool = load_tool()
    pairs = {
        "a.csv": ("x,y\n1.0,2.0\n", "x,y\n1.0,2.002\n", "y 0.000999"),
        "manifest.txt": ("outdir = p\nok = True\nv = [1.0, 4.0]\n",
                         "outdir = c\nok = False\nv = [1.0, 5.0]\n", "ok changed, v 0.2"),
        "same.txt": ("outdir = p\nq = 3\n", "outdir = c\nq = 3\n", "identical"),
        "s.fts": ("ftseries 1\n1 2 0 0 0 1.0 1.0 0.0 1\n1 0 0.5 0.0\n",
                  "ftseries 1\n1 2 0 0 0 1.0 1.0 0.0 1\n1 0 0.5 0.0\n2 0 0.25 -0.5\n",
                  "im 1, re 1"),
    }
    for name, (p_text, c_text, verdict) in pairs.items():
        p, c = tmp_path / f"p_{name}", tmp_path / f"c_{name}"
        p.write_text(p_text)
        c.write_text(c_text)
        assert tool.describe(p, c) == verdict, name
