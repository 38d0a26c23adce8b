"""Checks on the library's source text: every module-level import of a
module in ``src/sutured`` is used in it.  The package's ``__init__.py``
imports to re-export and is not checked."""

import ast
from pathlib import Path

import pytest

import sutured

MODULES = sorted(p for p in Path(sutured.__file__).parent.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []
