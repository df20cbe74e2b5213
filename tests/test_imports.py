"""Unused imports in the package, and the names the benchmark tracer rebinds.

No linter is installed, so ``ast`` stands in.
"""

import ast
import importlib
import pathlib

import pytest

import shiftcalc

MODULES = sorted(
    path for path in pathlib.Path(shiftcalc.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never mentions again; ``__future__`` imports
    are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_check_sees_an_unused_name():
    assert unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == ["dumps", "os"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nx: np.ndarray\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def traced_names() -> list[str]:
    """Every ``module.function`` in the benchmark tracer's ``LAYERS`` table,
    read from its source: the tracer rebinds each one by ``getattr``."""
    source = (pathlib.Path(__file__).parent.parent / "bench" / "spans.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]:
            layers = ast.literal_eval(node.value)
            return [f"{module}.{fn}" for module, fns in layers.items() for fn in fns]
    raise AssertionError("bench/spans.py defines no LAYERS table")


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    module, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"shiftcalc.{module}"), fn, None))
