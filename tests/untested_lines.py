"""List the statement lines of ``src/expanderlab`` that no Tier-1 test runs.

Runs the Tier-1 suite (pytest on ``tests/``) in this process under
``sys.settrace``, tracing only frames whose code lies in ``src/expanderlab``,
then prints each statement line, docstrings excluded, that no test
executed, as ``path:line: source``; pytest's report and a count go to
stderr.  It needs only the standard library besides pytest itself, and
pytest does not collect it (the name does not start with ``test_``).

It exits 0 whatever the tests do: tracing slows every traced line, so a
test with a time limit may fail under it.  The node id of every test that
failed under the tracer goes to stderr, so such a failure can be told from
a real one.  Tests that run the CLI in a subprocess are invisible to it;
the lines only they run are listed.

    python tests/untested_lines.py [extra pytest arguments]
"""

from __future__ import annotations

import ast
import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "expanderlab").glob("*.py"))


def statement_lines(path: Path) -> set[int]:
    """The first line of every statement in ``path``, docstrings excluded."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node not in docstrings}


class Failures:
    """A pytest plugin that keeps the node id of each failed report, of a
    test's set-up, call or tear-down or of a collection, once each."""

    def __init__(self):
        self.ids = {}

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids[report.nodeid] = None

    pytest_collectreport = pytest_runtest_logreport


def run_traced(pytest_args) -> tuple[int, set[tuple[str, int]], list[str]]:
    """Run pytest under the tracer: (pytest's exit code, (file, line) hits,
    the node ids that failed)."""
    import pytest

    files = {str(path) for path in SOURCES}
    hits = set()
    failures = Failures()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        with contextlib.redirect_stdout(sys.stderr):    # stdout is the listing
            code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                                *pytest_args], plugins=[failures])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits, list(failures.ids)


def main(argv) -> int:
    code, hits, failed = run_traced(argv)
    untested = total = 0
    for path in SOURCES:
        lines = path.read_text(encoding="utf-8").splitlines()
        wanted = statement_lines(path)
        total += len(wanted)
        for lineno in sorted(wanted - {n for f, n in hits if f == str(path)}):
            untested += 1
            print(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{untested} of {total} statement lines untested in-process; "
          f"pytest exit code {code}", file=sys.stderr)
    print(f"failed under the tracer: {', '.join(failed) or 'none'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
