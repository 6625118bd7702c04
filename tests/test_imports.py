"""Every name a module imports is used in it or listed in its ``__all__``, and
every private module-level name in the package is read by some module of it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "spreadverify").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tools").glob("*.py")])


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Names read by an annotation, quoted parts included."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _annotation_names(ast.parse(node.value, mode="eval").body)
    return names


def _names_read(node: ast.AST) -> set[str]:
    """Names one node reads as a value or in its own annotation."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return {node.id}
    if isinstance(node, ast.arg) and node.annotation is not None:
        return _annotation_names(node.annotation)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
        return _annotation_names(node.returns)
    if isinstance(node, ast.AnnAssign):
        return _annotation_names(node.annotation)
    return set()


def unused_imports(source: str) -> list[str]:
    """Names the source imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
        used |= _names_read(node)
    return [name for name in imported if name not in used]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private module-level name no module reads.

    ``sources`` maps module names to their source.  A private name starts
    with a single underscore and is bound at module level by a ``def``, a
    ``class`` or an assignment.  Reads are loads of the name, attribute
    reads (``core._name``), imports and annotations, in any of the modules.
    """
    defined: list[str] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [
                f"{module}.{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
            read |= _names_read(node)
    return [name for name in defined if name.partition(".")[2] not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterable, Optional\n"
        "from .core import _cross_tree_gap, _feature_index as index, spread\n"
        "__all__ = ['spread']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return index(os.path.sep)\n"
    )
    assert unused_imports(source) == ["Iterable", "_cross_tree_gap"]


def test_every_private_name_is_read():
    assert dead_private_names({path.stem: path.read_text() for path in PACKAGE}) == []


def test_an_unread_private_name_is_found():
    sources = {
        "core": (
            "_LIMIT = 3\n"
            "_unused: int = 0\n"
            "def _gap(a): return a\n"
            "def _scan(a): return a\n"
            "class _Box: pass\n"
            "def __getattr__(name): raise AttributeError(name)\n"
            "def public(b: '_Box') -> int: return _gap(b) + _LIMIT\n"
        ),
        "verifier": "from .core import _scan\n",
    }
    assert dead_private_names(sources) == ["core._unused"]
