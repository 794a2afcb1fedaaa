"""`tools/compare.py`: a checkout against itself is identical, and a moved
number is named with its relative move."""

import importlib.util
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
    assert all(ln.endswith(": identical") for ln in lines)
    assert {p.name for p in tmp_path.iterdir()} == {"parent", "change"}


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
