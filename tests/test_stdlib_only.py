"""The package imports nothing outside the standard library.

The test environment has networkx and other packages installed, so an
accidental import of one would not fail at run time here; this test reads
the sources instead.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import drd

SOURCES = sorted(Path(drd.__file__).parent.glob("*.py"))


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
