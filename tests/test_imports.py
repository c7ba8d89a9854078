"""Every module of the package, its tests and its scripts uses each name
it imports; every top-level _private name of the package is read somewhere
in the package or its tests, and every other top-level name of the package
(UPPER_CASE constant, def, class or binding) is read, as that module's
name, in the package, its tests, its scripts or the benchmark.  Every
package attribute the benchmark reads or wraps exists."""
import ast
import importlib
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


PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def package_reads(source):
    """(module, attribute) pairs that source takes from the package: names
    imported from its modules, attributes of the modules it imports, and
    (module, "attribute", ...) tuples, the form the benchmark's tracer
    wraps.  The package itself is the module ""."""
    tree = ast.parse(source)
    modules, pairs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, "") for alias in node.names
                           if alias.name == "manitrans")
        elif isinstance(node, ast.ImportFrom) and node.module == "manitrans":
            modules.update((alias.asname or alias.name, alias.name)
                           for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("manitrans."):
            pairs.update((node.module.split(".", 1)[1], alias.name)
                         for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            pairs.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            owner, attr = node.elts[:2]
            if isinstance(owner, ast.Name) and owner.id in modules and \
                    isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                pairs.add((modules[owner.id], attr.value))
    return pairs


def test_detects_package_reads():
    source = ("import manitrans\nfrom manitrans import expaction as ex, stiefel\n"
              "from manitrans.utils import asym\n"
              "PLAIN = ((stiefel, 'check_point'),)\n"
              "x = (ex, 'expa', None), ex.DENSE, manitrans.__file__\n")
    assert package_reads(source) == {
        ("utils", "asym"), ("stiefel", "check_point"), ("expaction", "expa"),
        ("expaction", "DENSE"), ("", "__file__")}


BENCHMARK_READS = {(path.name, *pair) for path in PERFBENCH
                   for pair in package_reads(path.read_text())}


def test_benchmark_reads_are_seen():
    # the tracer's wrapped names and expa's selection, and a workload call
    for want in (("tracer.py", "quotient", "to_algebra"),
                 ("tracer.py", "expaction", "one_norm_estimate_exhaustive"),
                 ("tracer.py", "expaction", "DENSE_FALLBACK_SCALINGS"),
                 ("workloads.py", "stiefel", "transport_with_plan")):
        assert want in BENCHMARK_READS


def test_benchmark_reads_exist():
    # a package change that drops one fails here, by name, not inside the
    # traced smoke run
    missing = sorted(
        f"{path}: manitrans{'.' if module else ''}{module}.{attr}"
        for path, module, attr in BENCHMARK_READS
        if not hasattr(importlib.import_module(
            "manitrans." + module if module else "manitrans"), attr))
    assert missing == []
