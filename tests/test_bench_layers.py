"""The names the benchmark tracer wraps still exist in specmul.

``benchmarks/layers.py`` patches the functions and methods listed in its
``SPANS`` and ``COUNTS`` tables, so renaming one of them breaks the traced
benchmark pass.  The tables are read from the file's syntax tree; nothing
under ``benchmarks/`` is imported or executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


def _wrapped_names():
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTS")):
            for row in node.value.elts:
                names.append((row.elts[0].value, row.elts[1].value))
    return names


WRAPPED = _wrapped_names()


def test_tables_found():
    assert len(WRAPPED) > 20


@pytest.mark.parametrize("module,path", WRAPPED, ids=lambda x: x)
def test_name_resolves(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # layers.py reads methods from the class namespace itself
    target = vars(owner)[attr] if outer else getattr(owner, attr)
    assert callable(target)
