"""Import and export hygiene of the package, checked on its syntax trees.

Every ``citefit.__all__`` name resolves and is listed once, and no module
under ``src/citefit`` imports a name it never uses (``__init__`` uses a
name by exporting it).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import citefit

MODULES = sorted(Path(citefit.__file__).parent.glob("*.py"))


def test_all_names_resolve_once():
    repeated = [name for name, count in Counter(citefit.__all__).items() if count > 1]
    assert repeated == []
    assert [name for name in citefit.__all__ if not hasattr(citefit, name)] == []


def _imported(tree) -> dict[str, int]:
    """Name bound by each import (``import a.b`` binds ``a``) -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _used(tree) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):   # names listed in __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert unused == []
