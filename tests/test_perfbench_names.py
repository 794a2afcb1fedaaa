"""Every function the benchmark traces exists under the name it traces.

`perfbench/tracing.py` rebinds each (module, attribute path) of its
`TRACED` table with getattr on `udham`, so a renamed function would fail
only the benchmark's traced run.  This reads the table from that file by
path, without importing or executing it, and resolves each entry the way
`tracing.install` does.
"""

import ast
from pathlib import Path

import pytest

import udham

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_table():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} holds no TRACED table")


@pytest.mark.parametrize("name, module, path", traced_table(), ids=lambda v: str(v))
def test_traced_attribute_resolves(name, module, path):
    obj = getattr(udham, module)
    if "." in path:                      # a method: rebound from its class's __dict__
        cls_name, meth = path.split(".")
        obj = vars(getattr(obj, cls_name))[meth]
        obj = getattr(obj, "__func__", obj)
    else:
        obj = getattr(obj, path)
    assert callable(obj), name
