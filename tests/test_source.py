"""Checks on the source text: every module-level import of a module in
``src/sutured`` or ``tests`` is used in it, and every module-level
private name (one leading underscore) is read somewhere in the package.
The package's ``__init__.py`` imports to re-export and is not checked
for unused imports."""

import ast
from pathlib import Path

import pytest

import sutured

SOURCES = sorted(Path(sutured.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list:
    """The names that the module-level imports of ``source`` bind and
    nothing in it reads, with the line of each import."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_finds_an_orphaned_import():
    source = "import bisect\nimport json\nfrom os import path as p\n\njson.dumps(p.sep)\n"
    assert _unused_imports(source) == [(1, "bisect")]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def _orphaned_private_names(sources: dict) -> list:
    """``(module, line, name)`` for each module-level function, class or
    assignment in ``sources`` (module name -> source text) whose name has
    one leading underscore and that no source reads.  A name is read
    where it is loaded, taken as an attribute or imported by ``from``."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read |= {alias.name for alias in n.names}
    return sorted(x for x in defined if x[2] not in read)


def test_the_check_finds_an_orphaned_private_name():
    sources = {
        "a": "_KEPT = 1\n_lost = 2\n\ndef _helper():\n    return _KEPT\n\nclass _Gone:\n    pass\n",
        "b": "from a import _helper\nimport a\n\na._lost\n__all__ = []\n",
    }
    assert _orphaned_private_names(sources) == [("a", 7, "_Gone")]


def test_every_private_module_level_name_is_read():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert _orphaned_private_names(sources) == []
