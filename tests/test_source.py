"""Source hygiene: no module of the package imports a name it never uses,
and every name the traced benchmark wraps still exists.

The import check is a static scan with `ast`: a name bound by an import
counts as used when it appears as a name anywhere in the module, inside a
quoted annotation, or in `__all__`.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latgas"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            yield from (arg.annotation for arg in ast.walk(node.args)
                        if isinstance(arg, ast.arg))
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(path) -> list:
    """(line, name) of each imported name that the module never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names
                         if a.name != "*"]
    used = used_names(tree)
    return sorted((line, name) for line, name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os\nimport numpy as np\nfrom typing import Optional, Sequence\n"
                      "def f(x: \"Optional[int]\") -> None:\n    return np.abs(x)\n")
    assert unused_imports(module) == [(2, "os"), (4, "Sequence")]


def test_traced_benchmark_targets_resolve():
    # `perfbench/tracer.py` patches each TARGETS entry in its owner's
    # __dict__; a refactor that drops one of these names would crash the
    # traced run (`perfbench/run.py --trace 1`), so it fails here instead.
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, path, _, _ in tracer.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = owner.__dict__.get(part)
        if owner is None or attr not in owner.__dict__:
            missing.append(f"{module}.{path}")
    assert missing == []
