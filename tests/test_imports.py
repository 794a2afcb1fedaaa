"""A fresh process loads only what its command runs.

`import udham` loads no submodule; `udham.<name>` imports one on first use.
`cli` loads the standard library and `udham.errors` at import, and each
command imports the library modules it runs, so `report` and a config error
load no numpy.  The exceptions live in `udham.errors`, and each library
module exports the ones it raises.
"""

import json
import subprocess
import sys

import pytest

import udham
from test_cli import _src_env
from udham import errors

BASE = {"udham", "udham.cli", "udham.errors"}
DIOPH = BASE | {"udham.weights", "udham.dioph"}
ANGLES = DIOPH | {"udham.series", "udham.flows"}
# name -> (argv, exit code, udham modules loaded, numpy loaded); each command
# runs on its defaults; the config errors stop in argparse, in reading the file
# and in checking the values, before the command imports anything
RUNS = {
    "weights": (["weights"], 0, BASE | {"udham.weights"}, True),
    "dioph": (["dioph"], 0, DIOPH, True),
    "brtest": (["brtest"], 0, DIOPH, True),
    "nf": (["nf"], 0, ANGLES | {"udham.normal_forms"}, True),
    "kam": (["kam"], 0, ANGLES | {"udham.normal_forms"}, True),
    "diffuse": (["diffuse"], 0, ANGLES | {"udham.instability"}, True),
    "ms": (["ms"], 0, ANGLES | {"udham.instability"}, True),
    "bessi": (["bessi"], 0, ANGLES | {"udham.instability"}, True),
    "report": (["report"], 0, BASE, False),
    "config_error": (["weights", "--alpha", "nan"], 2, BASE, False),
    "config_file_error": (["weights", "--config", "no-such.cfg"], 2, BASE, False),
    "mode_error": (["ms", "--mode", "banana"], 2, BASE, False),
    "family_error": (["weights", "--family", "banana"], 2, BASE, False),
    "grid_error": (["weights", "--sigma-grid", "1e-3"], 2, BASE, False),
    "norm_error": (["dioph", "--norm", "banana"], 2, BASE, False),
    "v_error": (["nf", "--hamiltonian", "H.fts", "--v", "1,x"], 2, BASE, False),
    "unread_in_mode_error": (["ms", "--mode", "exact", "--alpha", "3"], 2, BASE, False),
    "omega_error": (["dioph", "--omega", "1,nan"], 2, BASE, False),
    "k_max_error": (["kam", "--k-max", "1"], 2, BASE, False),
}
PROBE = """
import json, sys
from udham import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'udham'),
                  'numpy' in sys.modules]))
"""


def fresh(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(RUNS))
def test_command_loads_only_the_modules_it_runs(tmp_path, name):
    argv, code, modules, numpy = RUNS[name]
    assert fresh(PROBE, *argv, "--outdir", str(tmp_path)) == [code, sorted(modules), numpy]


def test_package_import_loads_no_submodule():
    probe = ("import json, sys, udham; "
             "print(json.dumps([sorted(m for m in sys.modules if m.startswith('udham')), "
             "'numpy' in sys.modules]))")
    assert fresh(probe) == [["udham"], False]


@pytest.mark.parametrize("name", udham.__all__)
def test_each_listed_name_resolves_to_its_module(name):
    module = getattr(udham, name)
    assert module is sys.modules[f"udham.{name}"]
    assert module.__name__ == f"udham.{name}"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'oracles'"):
        udham.oracles
    assert not hasattr(udham, "numpy")


EXPORTS = {
    "weights": ["ParameterError", "HorizonError"],
    "dioph": ["ResonanceError", "BudgetError", "UnsupportedError"],
    "flows": ["LieDivergence", "TaylorTailError", "StiffnessError", "QuadratureError"],
    "series": ["DomainMismatch"],
}


def test_each_error_is_the_class_its_module_exports():
    assert sorted(n for names in EXPORTS.values() for n in names) == sorted(
        n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, Exception))
    for modname, names in EXPORTS.items():
        for name in names:
            assert getattr(getattr(udham, modname), name) is getattr(errors, name), name
