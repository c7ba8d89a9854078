"""Every module of the package and of its tests uses each name it
imports, and every top-level _private name of the package is read
somewhere in the package or its tests."""
import ast
import pathlib

import pytest

import manitrans

SOURCES = sorted(pathlib.Path(manitrans.__file__).parent.glob("*.py"))
MODULES = SOURCES + sorted(pathlib.Path(__file__).parent.glob("*.py"))


def _dotted(node):
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id] + parts[::-1])
    return None


def unused_imports(source):
    """Names bound by the imports of source that it never reads; the
    strings of a literal __all__ count as reads."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            used.add(_dotted(node))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_detects_unused_names():
    source = ("import os\nimport scipy.linalg\nimport scipy.special\n"
              "from typing import Callable\n"
              "x = os.sep + scipy.linalg.expm\n")
    assert unused_imports(source) == ["scipy.special", "Callable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source):
    """Top-level _private names (not dunders) that source binds by def,
    class or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(source):
    """Every name and attribute that source reads or imports."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.alias):
            reads.add(node.name)
    return reads


def test_detects_unread_private_names():
    source = ("_USED = 1\n_UNREAD: int = 2\n__all__ = []\n"
              "def _orphan():\n    return _USED\n")
    reads = read_names(source)
    assert [n for n in private_definitions(source) if n not in reads] \
        == ["_UNREAD", "_orphan"]


READS = set().union(*(read_names(path.read_text()) for path in MODULES))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert [n for n in private_definitions(path.read_text())
            if n not in READS] == []
