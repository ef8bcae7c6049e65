"""Command-line interface.

Subcommands: bound, image, certify, search, subfield, selftest.  Data goes
to stdout (or --out); diagnostics, violations, and summary lines go to
stderr.  Exit codes: 0 success, 1 a proved identity failed to replay
(a bug, not bad input), 2 invalid input or parameters, 141 the reader
closed the output pipe.

search and subfield accept --config FILE with flat key=value lines;
explicit flags override the file, and what neither gives takes its default
from the signature of search_extremal or subfield_experiment.  Each
option's kind sits beside its name in COMMANDS, and every value is
converted in usage order before any work; a bad one, like any invalid
input, is one "error:" line naming the option.  No environment variable is
read, and no output contains timestamps or machine identifiers: the same
arguments produce the same bytes.

This module holds the option table, the reading of argv, the help pages,
:func:`_emit` and ``cmd_bound``.  Every other ``cmd_<command>`` lives in
the module that COMMANDS names, the one its subcommand loads for its work,
so an invocation compiles no other subcommand's handler.
"""

from __future__ import annotations

import os
import sys

# Only what every subcommand needs; each handler's module imports the layers it runs.
from .bound import INF, parse_characteristic, theorem_bound
from .errors import InternalInvariantError, InvalidParametersError, ValidationError

FORMATS = ("csv", "json", "plain")    # what explore.write_records renders

# Each subcommand's help line, its options in usage order, "*" marking a
# required one and ":KIND" what the value is converted to (see _KINDS; text
# without one), a bool one given as a bare flag, and the module that holds
# its cmd_<command>.  With _ for -, the names key the dict a cmd_* takes, and
# are the config keys of search and subfield.
_INSTANCE = "field* g* h* A* B*"
_SWEEP = "seed:int parallelism:int format out config"
COMMANDS = {
    "bound": ("compute the lower bound for sizes (a, b)", "field* a*:int b*:int d:int g h",
              "cli"),
    "image": ("evaluate the exact image of one instance", _INSTANCE, "instance"),
    "certify": ("build and replay a certificate for one instance",
                _INSTANCE + " C k:int seed:int out", "certificate"),
    "search": ("sweep (A, B) pairs and rank them by slack",
               "field* g* h* a*:sizes b*:sizes mode sample-count:int budget:int " + _SWEEP,
               "explore"),
    "subfield": ("measure image growth over a subfield plus one point",
                 "field* m*:int c-fraction*:c g h theta-count:int random-a:bool " + _SWEEP,
                 "explore"),
    "selftest": ("run the embedded check suite", "", "selftest"),
}
# Help notes, shared by every subcommand that takes the option.
_NOTES = {
    "field": "prime, p^n, p^n/modulus, or inf (bound --d only)", "d": "deg g, not --g/--h",
    "a": "|A| (search: N or LO-HI)", "b": "|B| (search: N or LO-HI)", "g": "g in x", "h": "h in x",
    "A": "comma-separated elements", "B": "comma-separated elements", "C": "the same, for C",
    "k": "size of a random C (default: best k)", "seed": "seed of the random draws (default 0)",
    "mode": "exhaustive or random", "sample-count": "pairs per (a, b) cell in random mode",
    "budget": "value evaluations, a * b per pair",
    "parallelism": ">= 1; evaluation is single-threaded", "format": ", ".join(FORMATS),
    "out": "write here, not to stdout", "config": "key=value file; flags override it",
    "m": "subfield degree, a proper divisor of n", "c-fraction": "|A| = ceil(c * p^m), 0 < c < 1",
    "theta-count": "sample this many points outside the subfield, not all",
    "random-a": "draw A at random from the subfield, not its first elements",
}


# -- shared helpers -------------------------------------------------------------


def _parse_sizes(text: str):
    """A size argument: "4" or an inclusive range "2-6"."""
    s = text.strip()
    if s.count("-") == 1 and not s.startswith("-"):
        return tuple(map(int, s.split("-")))
    return int(s)


def _parse_bool(value) -> bool:
    s = str(value).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(s)


def _check_c(text: str) -> str:
    from .subfield import parse_c
    parse_c(text)       # only checked: the library reads c from its text
    return text


# What a value becomes, by the kind COMMANDS gives its option, and what a bad
# one should have been; parse_c's own error says what is wrong with a c.
_KINDS = {"int": (int, "an integer"), "sizes": (_parse_sizes, "an integer or LO-HI range"),
          "bool": (_parse_bool, "a boolean"), "c": (_check_c, "")}


def _specs(command: str) -> list:
    """(name, required, kind) of ``command``'s options, in usage order."""
    return [(name.rstrip("*"), name.endswith("*"), kind) for name, _, kind in
            (spec.partition(":") for spec in COMMANDS[command][1].split())]


def _options(command: str) -> dict:
    """{name: required} of ``command``'s options, in usage order."""
    return {name: required for name, required, _ in _specs(command)}


def _given(command: str, flags: dict) -> dict:
    """``command``'s config file entries, then ``flags`` on top, each value
    converted to its kind.  Before any work, missing required options, a
    bad format, --C with --k and then, in usage order, a bad value are
    refused, the last as "--NAME: reason"."""
    options, opts = _options(command), {}
    if "config" in flags:
        from .explore import _read_config
        for key, value in _read_config(flags["config"]).items():
            if key.replace("_", "-") not in options or key == "config":
                raise InvalidParametersError(f"unknown config key {key!r}")
            opts[key] = value
    opts.update(flags)
    opts.pop("config", None)
    missing = [f"--{name}" for name, need in options.items()
               if need and name.replace("-", "_") not in opts]
    if missing:
        raise InvalidParametersError("missing required option(s): " + ", ".join(missing))
    if opts.get("format", "csv") not in FORMATS:
        raise InvalidParametersError(f"unknown format {opts['format']!r}")
    if "C" in opts and "k" in opts:
        raise InvalidParametersError("--C and --k cannot be given together")
    for name, _, kind in _specs(command):
        key = name.replace("-", "_")
        if kind and key in opts:
            convert, expected = _KINDS[kind]
            try:
                opts[key] = convert(opts[key])
            except ValueError as exc:
                reason = f"expected {expected}, got {opts[key]!r}" if expected else exc
                raise InvalidParametersError(f"--{name}: {reason}") from None
    return opts


def _emit(write, out_path: str | None) -> None:
    """Run ``write`` on the --out file, or on stdout without one."""
    if not out_path:
        write(sys.stdout)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise InvalidParametersError(f"cannot write {out_path}: {exc}") from None


# -- bound ----------------------------------------------------------------------


def cmd_bound(opts: dict) -> int:
    given = ("d" in opts, "g" in opts, "h" in opts)
    if given not in ((True, False, False), (False, True, True)):
        raise InvalidParametersError("provide either --d or both --g and --h")
    if "d" in opts:
        characteristic, d = parse_characteristic(opts["field"]), opts["d"]
    else:
        from .instance import _read_polys, check_degrees
        field, g, h = _read_polys(opts)
        check_degrees(g, h)
        characteristic, d = field.p, g.degree()
    report = theorem_bound(opts["a"], opts["b"], d, characteristic)
    # The bytes of json.dumps(report.to_dict(), indent=2), laid out here, as
    # every value is an int, the k list (never empty), "inf" or a bool: so
    # bound loads no json, whose indented encoder is pure Python anyway.
    p = report.characteristic
    values = {**report._asdict(), "characteristic": '"inf"' if p == INF else p,
              "admissible_k": "[\n    " + ",\n    ".join(map(str, report.admissible_k)) + "\n  ]",
              "fallback": str(report.fallback).lower()}
    sys.stdout.write("{\n" + ",\n".join(f'  "{key}": {value}' for key, value in values.items())
                     + "\n}\n")
    return 0


# -- argv ----------------------------------------------------------------------


def parse_args(argv) -> tuple:
    """(command, the options given, keyed with _ for -) from the arguments
    after the program name, or (command, None) for -h or --help.  Options are
    --name VALUE or --name=VALUE, name exact or a unique prefix, VALUE not
    starting with "--", the last repeat winning.  A bad token raises
    InvalidParametersError, an unknown or stray one only if no --help follows."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    kinds = {n: k for n, _, k in (_specs(command) if command else ())} | {"help": "bool"}
    tokens = iter(argv[1:] if command else argv[:1])    # before a command, only -h or --help
    given, unknown = {}, []
    for token in tokens:
        head, eq, value = token[2:].partition("=") if token[:2] == "--" else ("", "", None)
        found = [n for n in kinds if n == head] or [
            n for n in kinds if head and n.startswith(head)]
        if len(found) > 1:
            raise InvalidParametersError(
                f"ambiguous option --{head}: " + ", ".join("--" + n for n in found))
        name, value = (found[0] if found else None), (value if eq else None)
        if token == "-h" or name == "help" and value is None:
            return command, None
        if name is None:
            unknown.append(token)
            continue
        if kinds[name] == "bool":
            if value is not None:
                raise InvalidParametersError(f"--{name} takes no value, got {value!r}")
            value = True
        elif value is None:
            value = next(tokens, "--")      # "--" when no token is left
            if value.startswith("--"):
                raise InvalidParametersError(f"--{name} needs a value")
        given[name.replace("-", "_")] = value
    if command is None:
        raise InvalidParametersError(f"expected a command ({', '.join(COMMANDS)}), got "
                                     + (repr(argv[0]) if argv else "none"))
    if unknown:
        raise InvalidParametersError(f"unknown option or stray argument {unknown[0]!r}")
    return command, given


def _help(command: str | None) -> str:
    """The help page of ``command``, or of the program for None."""
    if command is None:
        head, rows = "COMMAND [--OPTION VALUE ...]\n\ncommands:", [
            (name, text) for name, (text, *_) in COMMANDS.items()]
    else:
        head = f"{command} [--OPTION VALUE ...]\n\n{COMMANDS[command][0]}\n\noptions:"
        rows = [(f"--{name}" + " VALUE" * (kind != "bool"), "required; " * need + _NOTES[name])
                for name, need, kind in _specs(command)] + [("-h, --help", "show this help")]
    return f"usage: expander-lab {head}\n" + "".join(f"  {a:<22}{b}\n" for a, b in rows)


def main(argv=None) -> int:
    try:
        command, flags = parse_args(sys.argv[1:] if argv is None else list(argv))
        if flags is None:
            sys.stdout.write(_help(command))
            code = 0
        else:
            opts, name = _given(command, flags), f"cmd_{command}"
            # Looked up per call, so a wrapper set on its module is the one run;
            # __import__, unlike importlib, shows under -X importtime.
            module = __import__(f"{__package__}.{COMMANDS[command][2]}", fromlist=[name])
            code = getattr(module, name)(opts)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: the final flush goes to /dev/null, and
        # the exit code is a shell's for a writer stopped by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
