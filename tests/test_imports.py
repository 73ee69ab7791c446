"""Every name a module under ``src/arcon`` imports is used there or exported,
and every field of ``GraphIndex`` is read there.

A stand-in for a linter's unused-import check, read off the syntax tree: a
name counts as used when it appears as a name anywhere in the module (an
annotation included) or is listed in the module's ``__all__``.  The same
syntax trees show the index's dead slots: a field counts as read when some
module loads it as an attribute, ``x.name``, which its own assignment does
not do.
"""

import ast
from pathlib import Path

import pytest

from arcon.symmetry import GraphIndex

SRC = Path(__file__).resolve().parent.parent / "src" / "arcon"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_finds_a_leftover():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .multigraph import Edge, GraphError, Id, idkey as key\n"
              "__all__ = ['Edge']\n"
              "def f(v: Id):\n"
              "    return os.path.basename(v)\n")
    assert unused_imports(source) == ["GraphError", "key"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def attributes_read(source: str) -> set[str]:
    """The attribute names ``source`` loads, as in ``x.name`` or ``x.name(...)``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_reader_skips_assignments():
    source = ("class C:\n"
              "    def __init__(self):\n"
              "        self.a, self.b = 1, 2\n"
              "        self.c = self.b\n")
    assert attributes_read(source) == {"b"}


def test_no_dead_index_slots():
    read = set().union(*(attributes_read(path.read_text()) for path in MODULES))
    assert [name for name in GraphIndex.__slots__ if name not in read] == []
