"""The package imports nothing outside the standard library, and nothing
that it does not use.

The test environment has networkx and other packages installed, so an
accidental import of one would not fail at run time here; these tests read
the sources instead.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import drd

SOURCES = sorted(Path(drd.__file__).parent.glob("*.py"))
# the package's __init__ imports to re-export, so it is left out
USED_IMPORT_SOURCES = [s for s in SOURCES if s.name != "__init__.py"] + sorted(
    Path(__file__).parent.glob("*.py"))


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) stays inside drd
            yield "drd" if node.level else node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    assert SOURCES
    for source in SOURCES:
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        for root in _imported_roots(tree):
            assert root == "drd" or root in sys.stdlib_module_names, (source.name, root)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imports that no expression in the module refers to.

    ``import a.b`` counts as used only where ``a.b`` or a lookup on it is
    written out, so of ``import drd.cli`` and ``import drd.graph`` each is
    checked on its own although both bind ``drd``.
    """
    used = set()
    for node in ast.walk(tree):
        name = _dotted(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
        while name:
            used.add(name)
            name = name.rpartition(".")[0]
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported += [alias.asname or alias.name for alias in node.names]
    return [name for name in imported if name not in used]


def test_every_module_level_import_is_used():
    assert len(USED_IMPORT_SOURCES) > len(SOURCES)
    unused = []
    for source in USED_IMPORT_SOURCES:
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        unused += [(source.name, name) for name in _unused_imports(tree)]
    assert unused == []
