"""Every module of the package and of its tests uses each name it
imports."""
import ast
import pathlib

import pytest

import manitrans

MODULES = sorted(pathlib.Path(manitrans.__file__).parent.glob("*.py")) \
    + sorted(pathlib.Path(__file__).parent.glob("*.py"))


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
