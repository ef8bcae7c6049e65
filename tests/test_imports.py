"""What the package imports.

Every name a module of the package imports is used in that module
(``__init__`` is exempt, since it imports to re-export, and so is
``from __future__ import annotations``), and start-up loads nothing that
pulls in ``inspect``.
"""

import ast
import os
import subprocess
import sys
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


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses loads inspect, and inspect loads ast, dis and tokenize:
    # about 10 ms of every CLI invocation.  Only the modules that importing
    # the CLI adds count, so a site hook that loads them does not fail this.
    src = os.path.dirname(os.path.dirname(expanderlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import expanderlab.cli\n"
            "print(*sorted(set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "expanderlab.cli" in added
    assert sorted(added & {"dataclasses", "inspect"}) == []
