"""Module boundaries: no library module touches another object's private
attributes or imports a private name from a sibling module, the package
loads on numpy alone, and every name the benchmark's tracer wraps exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "alphatail"
SPANS = SRC.parents[1] / "bench" / "spans.py"
MODULES = sorted(SRC.glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom):
            sibling = node.level > 0 or (node.module or "").startswith("alphatail")
            for alias in node.names:
                if sibling and is_private(alias.name):
                    found.append(f"line {node.lineno}: import of {alias.name}")
    return found


def test_modules_found():
    assert {"zoo.py", "tail_index.py", "estimate.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_access_across_objects(path):
    assert violations(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("source, n_found", [
    ("dist._finite_probs", 1),
    ("self._levels; cls._x; dist.__class__", 0),
    ("from .zoo import _log_weight, LN2", 1),
    ("from alphatail.zoo import _tail_bracket", 1),
    ("from numpy import _private_thing", 0),
])
def test_checker_itself(source, n_found):
    assert len(violations(ast.parse(source))) == n_found


def test_import_loads_numpy_alone():
    # a fresh interpreter: every package that importing alphatail adds, past
    # numpy, is the standard library's
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, numpy; before = set(sys.modules); import alphatail; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'alphatail'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _spans_list(name: str) -> list:
    """The literal list ``name`` assigned in ``bench/spans.py``, read as
    source: module references as their names."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))
    return [tuple(e.id if isinstance(e, ast.Name) else e.value for e in item.elts)
            if isinstance(item, ast.Tuple) else item.value for item in value.elts]


def test_benchmark_wraps_names_that_exist():
    # the tracer getattr()s each name at install; a refactor that drops one
    # breaks every traced benchmark run
    functions, methods = _spans_list("FUNCTIONS"), _spans_list("METHODS")
    assert functions and methods
    for module, attr, _ in functions:
        assert callable(getattr(importlib.import_module(f"alphatail.{module}"), attr, None)), f"{module}.{attr}"
    distribution = importlib.import_module("alphatail.zoo").Distribution
    for attr in methods:
        assert callable(getattr(distribution, attr, None)), f"Distribution.{attr}"
