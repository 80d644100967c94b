"""Every name in ``src/suplab`` earns its place: each import is used in its
module, and each private module-level name is read somewhere in ``src/``.

The modules are parsed with :mod:`ast`, so a name that a change leaves
orphaned (an import no line uses any more, a helper no one calls) fails here
instead of lingering.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "suplab"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _read(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads: a bare name, an attribute, or a name imported from a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _imports(tree: ast.AST):
    """(bound name, line) of every import in ``tree`` but ``from __future__``'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


def _private_definitions(tree: ast.Module):
    """(name, line) of each module-level function, class or assignment whose
    name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                       if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node.lineno) for name in targets
                    if name.startswith("_") and not name.startswith("__"))


@pytest.mark.parametrize("module", list(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [f"{module}:{line} {name}" for name, line in _imports(tree) if name not in used] == []


def test_every_private_name_is_read():
    read = set().union(*map(_read, TREES.values()))
    unread = [f"{module}:{line} {name}" for module, tree in TREES.items()
              for name, line in _private_definitions(tree) if name not in read]
    assert unread == []
