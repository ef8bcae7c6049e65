"""Every name a module of the package imports is used in that module.

``__init__`` is exempt (it imports to re-export), and so is
``from __future__ import annotations``.
"""

import ast
from pathlib import Path

import pytest

import expanderlab

MODULES = sorted(p for p in Path(expanderlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []
