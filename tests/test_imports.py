"""What the package imports.

Every name a module of the package imports is used in that module (``from
__future__ import annotations`` is exempt), start-up loads nothing that
pulls in ``inspect``, each subcommand loads only the layers it runs and
compiles no more package source than its ceiling, the package namespace resolves its public names lazily, and the five error
types are the only exceptions it defines, each of which pickles.
"""

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import expanderlab

MODULES = sorted(Path(expanderlab.__file__).parent.glob("*.py"))


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


def _run(*argv):
    """Run this Python on ``argv`` with the package under test importable."""
    src = os.path.dirname(os.path.dirname(expanderlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses loads inspect, and inspect loads ast, dis and tokenize:
    # about 10 ms of every CLI invocation.  Only the modules that importing
    # the CLI adds count, so a site hook that loads them does not fail this.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import expanderlab.cli\n"
            "print(*sorted(set(sys.modules) - before))\n")
    added = set(_run("-c", code).stdout.split())
    assert "expanderlab.cli" in added
    assert sorted(added & {"argparse", "dataclasses", "inspect"}) == []


# Per invocation, with tiny inputs: the modules it runs, and the modules that
# only other invocations run, which it must not load.  `bound --d` over a
# prime or inf runs the digit code alone; a field text or --g/--h is parsed
# by the field layer, and only a p^n or p^n/modulus text loads the extension
# layer.  The instance layer loads where g and h are checked, so not for
# `bound --d`, and no bound run loads json: its report is laid out by hand.
# An exhaustive search draws nothing, so it loads no generator, and only
# subfield loads the subfield driver.  No
# invocation loads argparse, nor gettext and locale, which argparse loads to
# translate its messages: the CLI reads argv from its option table.
_SUBFIELD = "expanderlab.subfield"
_OTHER_LAYERS = {"expanderlab.explore", "expanderlab.certificate", "expanderlab.rng",
                 "expanderlab.selftest", _SUBFIELD, "fractions"}
_EXTENSION = "expanderlab.extension"
_INSTANCE = "expanderlab.instance"
_FIELD_LAYERS = {"expanderlab.field", "expanderlab.poly", _EXTENSION}
_ARGPARSE = {"argparse", "gettext", "locale"}
SUBCOMMAND_MODULES = {
    "bound": ("bound --field 2 --a 10 --b 3 --d 1",
              {"expanderlab.bound"}, _OTHER_LAYERS | _FIELD_LAYERS | {_INSTANCE, "json"}),
    "bound-inf": ("bound --field inf --a 10 --b 3 --d 2",
                  {"expanderlab.bound"}, _OTHER_LAYERS | _FIELD_LAYERS | {_INSTANCE, "json"}),
    "bound-polys": ("bound --field 7 --a 10 --b 3 --g x^2 --h x",
                    {"expanderlab.field", _INSTANCE}, _OTHER_LAYERS | {_EXTENSION, "json"}),
    "bound-extension": ("bound --field 3^2 --a 8 --b 3 --d 2",
                        {"expanderlab.field", _EXTENSION},
                        _OTHER_LAYERS | {"expanderlab.poly", _INSTANCE, "json"}),
    "certify": ("certify --field 13 --g x^2 --h x --A 1,2,3 --B 0,1",
                {"expanderlab.certificate", _INSTANCE},
                {"expanderlab.explore", "expanderlab.selftest", _SUBFIELD, "fractions",
                 _EXTENSION}),
    "search": ("search --field 5 --g x^2 --h x --a 1 --b 1",
               {"expanderlab.explore", _INSTANCE},
               {"expanderlab.certificate", "expanderlab.rng", "expanderlab.selftest",
                _SUBFIELD, "fractions", "json", _EXTENSION}),
    "image": ("image --field 13 --g x^2 --h x --A 1,2,3 --B 0,1",
              {"expanderlab.bound", _INSTANCE}, _OTHER_LAYERS | {"csv", "array", _EXTENSION}),
    "subfield": ("subfield --field 3^2 --m 1 --c-fraction 1/2",
                 {"expanderlab.explore", _SUBFIELD, _EXTENSION, _INSTANCE},
                 {"expanderlab.certificate", "expanderlab.selftest", "json"}),
    "search-help": ("search --help", {"expanderlab.cli"},
                    _OTHER_LAYERS | _FIELD_LAYERS | {_INSTANCE}),
}


def _loaded(argv: str) -> set:
    """What ``python -m expanderlab ARGV`` loads, read from -X importtime,
    which lists each module as its import ends, inner ones first; running
    -m expanderlab loads the package, which imports no module of its own,
    so what follows its line is what the subcommand loaded."""
    stderr = _run("-X", "importtime", "-m", "expanderlab", *argv.split()).stderr
    names = [line.rpartition("|")[2].strip() for line in stderr.splitlines()
             if line.startswith("import time:")]
    return set(names[names.index("expanderlab"):])


@pytest.mark.parametrize("name", SUBCOMMAND_MODULES)
def test_subcommand_loads_only_the_layers_it_runs(name):
    argv, runs, absent = SUBCOMMAND_MODULES[name]
    loaded = _loaded(argv)
    assert sorted(runs - loaded) == []
    assert sorted(loaded & (absent | _ARGPARSE)) == []


# The bytes of package source each run of SUBCOMMAND_MODULES may compile, as
# an interpreter that writes no bytecode compiles every module it loads: the
# total once each handler lives in the module its subcommand runs, rounded up
# to 500 B, so a handler or kernel that moves back into cli or bound fails.
SOURCE_CEILINGS = {"bound": 27_000, "bound-inf": 27_000, "bound-polys": 58_000,
                   "bound-extension": 49_500, "certify": 75_000, "search": 78_000,
                   "image": 58_000, "subfield": 92_000, "search-help": 27_000}


@pytest.mark.parametrize("name", SUBCOMMAND_MODULES)
def test_subcommand_compiles_at_most_its_ceiling_of_source(name):
    # -m runs __main__ without importing it, so it is added by hand.
    package = Path(expanderlab.__file__).parent
    files = {"__main__"} | {module.partition(".")[2] or "__init__"
                            for module in _loaded(SUBCOMMAND_MODULES[name][0])
                            if module.partition(".")[0] == "expanderlab"}
    if name == "bound":
        assert files == {"__init__", "__main__", "cli", "errors", "bound"}
    assert sum((package / f"{file}.py").stat().st_size for file in files) <= SOURCE_CEILINGS[name]


def test_package_import_loads_no_module_of_its_own():
    code = ("import sys\n"
            "import expanderlab\n"
            "print(*sorted(n for n in sys.modules if n.startswith('expanderlab.')))\n")
    assert _run("-c", code).stdout.split() == []


# -- the lazy namespace -------------------------------------------------------------


def test_every_public_name_is_its_home_modules_object():
    for name in expanderlab.__all__:
        if name != "__version__":
            home = importlib.import_module(f"expanderlab.{expanderlab._HOME[name]}")
            assert getattr(expanderlab, name) is getattr(home, name), name


def test_dir_covers_all():
    assert sorted(set(expanderlab.__all__) - set(dir(expanderlab))) == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from expanderlab import *", namespace)
    for name in expanderlab.__all__:
        assert namespace[name] is getattr(expanderlab, name), name


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        expanderlab.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from expanderlab import no_such_name  # noqa: F401


# -- the error types ----------------------------------------------------------------

ERRORS = {"ValidationError", "ParseError", "FieldMismatchError", "InvalidParametersError",
          "InternalInvariantError"}


def test_the_package_defines_five_error_types():
    # Bad input is a ValidationError whose subclass names the kind of input;
    # selftest's private _Mismatch never leaves run_selftest.
    defined = set()
    for path in MODULES:
        module = importlib.import_module(f"expanderlab.{path.stem}")
        defined |= {(path.stem, name) for name, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    assert defined == {("errors", name) for name in ERRORS} | {("selftest", "_Mismatch")}
    assert {name for name in expanderlab.__all__ if name.endswith("Error")} == ERRORS


def test_every_error_pickles_and_copies():
    # A worker process hands its error back to the parent by pickling it.
    F = expanderlab.Field(5)
    inst = expanderlab.check_instance(F, expanderlab.parse_poly("x^2", F),
                                      expanderlab.parse_poly("x", F), [1, 2, 3, 4], [0, 1])
    with pytest.raises(expanderlab.InvalidParametersError) as inadmissible_k:
        expanderlab.build_certificate(inst, [0, 1, 2, 3])
    for error in [*(getattr(expanderlab, name)("a fault") for name in sorted(ERRORS)),
                  inadmissible_k.value]:
        for twin in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
            assert type(twin) is type(error) and twin.args == error.args, error
