"""Every module of the package, its tests and its scripts uses each name
it imports; every top-level _private name of the package is read somewhere
in the package or its tests, and every other top-level name of the package
(UPPER_CASE constant, def, class or binding) is read, as that module's
name, in the package, its tests, its scripts or the benchmark."""
import ast
import pathlib
import re

import pytest

import manitrans

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted(pathlib.Path(manitrans.__file__).parent.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
MODULES = SOURCES + TESTS + SCRIPTS


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


def top_level_names(source):
    """Names that source binds at top level by def, class or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def private_definitions(source):
    """Top-level _private names (not dunders) of source."""
    return [n for n in top_level_names(source)
            if n.startswith("_") and not n.startswith("__")]


def constant_definitions(source):
    """Top-level UPPER_CASE names of source."""
    return [n for n in top_level_names(source) if re.fullmatch(r"[A-Z][A-Z0-9_]*", n)]


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


def qualified_reads(source, module):
    """(owner, name) pairs that source, the module named `module`, reads:
    its own loads, names it imports from a module and attributes
    owner.name."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add((module, node.id))
        elif isinstance(node, ast.Attribute) and _dotted(node):
            reads.add(tuple(_dotted(node).split(".")[-2:]))
        elif isinstance(node, ast.ImportFrom) and node.module:
            owner = node.module.rsplit(".", 1)[-1]
            reads.update((owner, alias.name) for alias in node.names)
    return reads


def test_detects_unread_constants():
    own = "A = 1\nB = 2\nC = 3\nD = 4\n_E = 5\nprint(A)\n"
    other = "from pkg.own import B\nfrom . import own\nprint(own.C, D)\n"
    reads = qualified_reads(own, "own") | qualified_reads(other, "other")
    assert [n for n in constant_definitions(own) if ("own", n) not in reads] \
        == ["D"]


QUALIFIED_READS = set().union(*(
    qualified_reads(path.read_text(), path.stem)
    for path in MODULES + sorted((ROOT / "perfbench").glob("*.py"))))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_constant_is_read(path):
    assert [n for n in constant_definitions(path.read_text())
            if (path.stem, n) not in QUALIFIED_READS] == []


def public_definitions(source):
    """Top-level public names of source, constants aside."""
    return [n for n in top_level_names(source) if not n.startswith("_")
            and n not in constant_definitions(source)]


def test_detects_unread_public_names():
    own = "def used():\n    pass\ndef orphan():\n    pass\nalias = used\n"
    other = "from pkg.own import alias\nprint(alias)\n"
    reads = qualified_reads(own, "own") | qualified_reads(other, "other")
    assert [n for n in public_definitions(own) if ("own", n) not in reads] \
        == ["orphan"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_public_name_is_read(path):
    assert [n for n in public_definitions(path.read_text())
            if (path.stem, n) not in QUALIFIED_READS] == []
