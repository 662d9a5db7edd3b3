"""Source hygiene: no module of the package or of the tests imports a name it
never uses, every public name has a caller, and every name the traced
benchmark wraps still exists.

The import check is a static scan with `ast`: a name bound by an import
counts as used when it appears as a name anywhere in the module, inside a
quoted annotation, or in `__all__`.

The caller check is a fixpoint over the package's definitions (top-level
functions and classes, and each class's methods): a definition is dead when
no live code refers to its name, live code being the package's module-level
code, all of `perfbench/`, and live definitions other than itself and its own
methods.  A reference is an `ast.Name` id, an `ast.Attribute` attribute or a
string constant spelling a dotted name (as in the traced benchmark's TARGETS).
Names match by spelling only, so a name shared with a common identifier is
never found dead; a dead class takes its methods with it.  For the same
reason two package definitions of one spelling hide each other's callers, so
each such spelling is listed in `SHARED` with the check that keeps both.

Run as a script, `python tests/test_source.py` prints the size of each
package module, in lines and in AST nodes, and the total.
"""

import ast
import collections
import importlib
import importlib.util
import itertools
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latgas"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"

# Public names without a caller yet, each held for the open ROADMAP item that
# will call it.
KEEP = {
    "dynamics.ReservoirProfiles.matched": "H",
    "generator.ExactGenerator.state_bits": "I, L",
}

# Spellings that two or more package definitions share (dunder methods
# aside), each with the definitions and why every one of them has a caller.
SHARED = {
    "shape": ({"grid.Grid.shape", "lattice.Lattice.shape"},
              "the grid's node array shape (`hydro`, `empirical`) and the lattice's "
              "site array shape (`Lattice.all_coords`, `empirical.block_average`)"),
}


def parse(path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


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
    tree = parse(path)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names
                         if a.name != "*"]
    used = used_names(tree)
    return sorted((line, name) for line, name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os\nimport numpy as np\nfrom typing import Optional, Sequence\n"
                      "def f(x: \"Optional[int]\") -> None:\n    return np.abs(x)\n")
    assert unused_imports(module) == [(2, "os"), (4, "Sequence")]


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(nodes) -> set:
    """Every name the nodes refer to, as ids, attributes and dotted strings."""
    out = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.match(node.value)):
            out.update(node.value.split("."))
    return out


def definitions(path, defs: dict) -> set:
    """Add the module's definitions to `defs`, keyed "module.name" or
    "module.Class.name", as (owner class or None, name, references); return
    the references of the module-level code outside them."""
    root = set()
    for stmt in parse(path).body:
        if isinstance(stmt, DEFINITIONS):
            qual = f"{path.stem}.{stmt.name}"
            members = [m for m in stmt.body if isinstance(m, DEFINITIONS)] \
                if isinstance(stmt, ast.ClassDef) else []
            rest = [n for n in ast.iter_child_nodes(stmt) if n not in members]
            defs[qual] = (None, stmt.name, references(rest))
            defs.update({f"{qual}.{m.name}": (qual, m.name, references([m])) for m in members})
        elif "__all__" not in references(getattr(stmt, "targets", [])):
            root |= references([stmt])  # a re-export in __all__ is no call
    return root


def dead_public_names(package_files, caller_files) -> set:
    """The package's public definitions that no live code refers to, found by
    iterating until no further definition dies; methods of a dead class are
    not listed apart from it."""
    defs, root = {}, set()
    for path in package_files:
        root |= definitions(path, defs)
    for path in caller_files:
        root |= references([parse(path)])
    dead: set = set()
    while True:
        live = [q for q in defs if q not in dead]
        count = collections.Counter(itertools.chain(root, *(defs[q][2] for q in live)))
        died = set()
        for q in live:
            owner, name, _ = defs[q]
            own = [m for m in live if m == q or defs[m][0] == q]
            others = count[name] - sum(name in defs[m][2] for m in own)
            if owner in dead or (others == 0 and not name.startswith("__")):
                died.add(q)
        if not died:
            return {q for q in dead if defs[q][0] not in dead
                    and not any(part.startswith("_") for part in q.split("."))}
        dead |= died


def test_scan_finds_a_dead_name(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def orphan():\n    return orphan_helper()\n"
        "def orphan_helper():\n    return 2\n"
        "class Box:\n    def named(self):\n        return 3\n"
        "    def unnamed(self):\n        return Box()\n"
        "class Lonely:\n    def method(self):\n        return Lonely()\n"
        "def _private():\n    pass\n"
        "__all__ = ['orphan']\n"
        "used()\n")
    caller = tmp_path / "caller.py"
    caller.write_text("TARGETS = ('module.Box.named',)\n")
    assert dead_public_names([module], [caller]) == {
        "module.orphan", "module.orphan_helper", "module.Box.unnamed", "module.Lonely"}


def test_every_public_name_has_a_caller():
    # A public name no command path, benchmark file or open ROADMAP item
    # calls is surface to delete (tests call the package too, but do not
    # count as callers: an independent reference belongs in tests/).
    dead = dead_public_names(sorted(PACKAGE.glob("*.py")), sorted(PERFBENCH.rglob("*.py")))
    unheld = sorted(dead - set(KEEP))
    assert not unheld, f"{len(unheld)} public names without a caller: {', '.join(unheld)}"
    stale = sorted(set(KEEP) - dead)
    assert not stale, f"held in KEEP but called now (drop them there): {', '.join(stale)}"


def shared_spellings(package_files) -> dict:
    """Each spelling that two or more of the package's definitions share,
    dunder methods aside, with the set of their qualified names."""
    defs: dict = {}
    for path in package_files:
        definitions(path, defs)
    by_name = collections.defaultdict(set)
    for qual, (_, name, _) in defs.items():
        if not name.startswith("__"):
            by_name[name].add(qual)
    return {name: quals for name, quals in by_name.items() if len(quals) > 1}


def test_shared_spellings_are_listed():
    # the caller scan cannot tell apart definitions of one spelling, so a
    # dead one hides behind a live one; each shared spelling needs a reason
    # here, checked by hand
    shared = shared_spellings(sorted(PACKAGE.glob("*.py")))
    assert shared == {name: quals for name, (quals, _) in SHARED.items()}


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


def source_sizes(paths) -> dict:
    """(lines, AST nodes) of each module, by file name."""
    return {path.name: (len(path.read_text().splitlines()), sum(1 for _ in ast.walk(parse(path))))
            for path in paths}


if __name__ == "__main__":
    sizes = source_sizes(sorted(PACKAGE.glob("*.py")))
    sizes["total"] = tuple(map(sum, zip(*sizes.values())))
    for name, (lines, nodes) in sizes.items():
        print(f"{name:<14} {lines:>6,} lines {nodes:>7,} AST nodes")
