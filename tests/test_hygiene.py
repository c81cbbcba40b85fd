"""Source hygiene: every imported name and every module-level assignment in
the package and the tests is read, and every private helper is used."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "conesurf").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name an import statement binds and no
    expression reads."""
    tree = ast.parse(source)
    bound = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "def f(x: np.ndarray) -> None:\n    return c\n")
    assert unused_imports(source) == [(1, "os"), (3, "e")]


def orphaned_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every private top-level function or class in the
    given sources that no code outside its own definition refers to, by a
    bare name, an attribute or an import."""
    trees = {name: ast.parse(text) for name, text in sources.items()}

    def references(node) -> Counter:
        seen = Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                seen[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                seen[sub.attr] += 1
            elif isinstance(sub, ast.ImportFrom):
                seen.update(a.name for a in sub.names)
        return seen

    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and everywhere[node.name] == references(node)[node.name]):
                orphans.append(f"{module}.{node.name}")
    return orphans


def test_every_private_helper_is_used():
    # a helper that inlining made obsolete is deleted or moved to the tests'
    # oracles, not left beside the code that replaced it
    package = ROOT / "src" / "conesurf"
    sources = {p.stem: p.read_text() for p in sorted(package.glob("*.py"))}
    assert orphaned_private_definitions(sources) == []


def test_orphaned_private_helpers_are_found():
    sources = {"a": "def _used(): pass\ndef _self(n): return _self(n - 1)\nclass _Gone: pass\n",
               "b": "from .a import _used\n"}
    assert orphaned_private_definitions(sources) == ["a._self", "a._Gone"]


def unread_module_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every name that an assignment at module level binds,
    dunder names aside, and that no expression in the given sources reads, by
    a bare name or an attribute, and no import names."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            unread += [f"{module}.{sub.id}" for target in targets for sub in ast.walk(target)
                       if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
                       and not (sub.id.startswith("__") and sub.id.endswith("__"))
                       and sub.id not in read]
    return unread


def test_every_module_level_name_is_read():
    # a constant whose last reader went, like a test's own trace options once
    # the call took none, is deleted with it
    # the package's __init__ too: a name it re-exports is read by its users
    paths = [*SOURCES, ROOT / "src" / "conesurf" / "__init__.py"]
    sources = {f"{p.parent.name}/{p.stem}": p.read_text() for p in paths}
    assert unread_module_names(sources) == []


def test_unread_module_names_are_found():
    sources = {"a": "A = 1\nB, (C, D) = 2, (3, 4)\n__version__ = '1'\nE: int = 5\nF = 6\n"
                    "F += 1\ndef f():\n    G = 7\n    return A\n",
               "b": "from a import C\nimport a\nprint(a.D)\na.E = 8\n"}
    assert unread_module_names(sources) == ["a.B", "a.E", "a.F"]
