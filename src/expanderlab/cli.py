"""Command-line interface.

Subcommands: bound, image, certify, search, subfield, selftest.  Data goes
to stdout (or --out); diagnostics, violations, and summary lines go to
stderr.  Exit codes: 0 success, 1 a proved identity failed to replay
(a bug, not bad input), 2 invalid input or parameters, 141 the reader
closed the output pipe.

search and subfield accept --config FILE with flat key=value lines;
explicit flags override the file, and what neither gives takes its default
from SearchConfig or subfield_experiment.  The environment variable
EXPANDER_LAB_BUDGET overrides the built-in search budget and is itself
overridden by a config file or flag.  No output contains timestamps or
machine identifiers: the same invocation produces the same bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

# Only what every subcommand needs.  Each cmd_* imports the layers it runs,
# so an invocation compiles only those: field and poly where a field text is
# parsed (not `bound --d` over a prime or inf), explore for search and
# subfield, certificate and rng for certify, selftest for selftest, and json
# where JSON is written.
from .bound import (
    check_degrees,
    check_instance,
    image,
    negative_slack_error,
    parse_characteristic,
    theorem_bound,
)
from .errors import InternalInvariantError, InvalidParametersError, ParseError, ValidationError

_ENV_BUDGET = "EXPANDER_LAB_BUDGET"
FORMATS = ("csv", "json", "plain")    # what explore.write_records renders
_OUTPUT_KEYS = ("format", "out")


# -- shared helpers -------------------------------------------------------------


def _parse_elements(field, text: str, option: str):
    """Comma-separated elements; a blank argument is the empty set."""
    items = text.split(",") if text.strip() else []
    if not all(item.strip() for item in items):
        raise ParseError(f"{option}: empty item in {text!r}")
    return [field.parse_element(item) for item in items]


def _parse_sizes(text: str):
    """A size argument: "4" or an inclusive range "2-6"."""
    s = str(text).strip()
    try:
        if s.count("-") == 1 and not s.startswith("-"):
            lo, hi = s.split("-")
            return (int(lo), int(hi))
        return int(s)
    except ValueError:
        raise InvalidParametersError(
            f"size must be an integer or LO-HI range, got {text!r}") from None


def _parse_bool(value) -> bool:
    s = str(value).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise InvalidParametersError(f"expected a boolean, got {value!r}")


def _read_config(path: str) -> dict:
    """Flat key=value file; blank lines and # comments are skipped."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InvalidParametersError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParametersError(f"cannot read config {path}: {exc}") from None
    return out


def _given(args, keys: tuple, *required: str) -> dict:
    """The options given among ``keys``: config file entries, then explicit
    flags on top.  Missing ``required`` ones are named in one error."""
    opts = {}
    if getattr(args, "config", None):
        for key, value in _read_config(args.config).items():
            if key not in keys:
                raise InvalidParametersError(f"unknown config key {key!r}")
            opts[key] = value
    opts.update((key, value) for key, value in vars(args).items() if key in keys)
    missing = [key for key in required if key not in opts]
    if missing:
        raise InvalidParametersError("missing required option(s): " + ", ".join(
            "--" + key.replace("_", "-") for key in missing))
    return opts


def _numbers(opts: dict, *keys: str) -> None:
    """int() the given ``keys`` in order; c_fraction is only checked, since
    the library reads its text.  A bad value is a bad numeric option."""
    try:
        for key in keys:
            if key == "c_fraction":
                from .explore import parse_c
                parse_c(opts[key])
            elif key in opts:
                opts[key] = int(opts[key])
    except ValueError as exc:
        raise InvalidParametersError(f"bad numeric option: {exc}") from None


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


def _emit_records(records, output: dict) -> None:
    """Records to stdout or --out, then the summary to stderr.  A format
    from a config file is checked here, after the run, before --out opens."""
    from .explore import summarize, write_records

    fmt = output.get("format", "csv")
    if fmt not in FORMATS:
        raise InvalidParametersError(f"unknown format {fmt!r}")
    _emit(lambda out: write_records(records, fmt, out), output.get("out"))
    print(summarize(records), file=sys.stderr)


# -- bound ----------------------------------------------------------------------


def cmd_bound(args) -> int:
    import json

    field_text = args.field.strip()
    given = (args.d is not None, args.g is not None, args.h is not None)
    if given not in ((True, False, False), (False, True, True)):
        raise InvalidParametersError("provide either --d or both --g and --h")
    if args.d is not None:
        if "^" in field_text or "/" in field_text:
            from .field import parse_field
            characteristic = parse_field(field_text).p
        else:
            characteristic = parse_characteristic(field_text)
        d = args.d
    else:
        if field_text.lower() == "inf":
            raise InvalidParametersError(
                "--g/--h need a finite field; use --d with --field inf")
        from .field import parse_field
        from .poly import parse_poly
        field = parse_field(field_text)
        g = parse_poly(args.g, field)
        h = parse_poly(args.h, field)
        check_degrees(g, h)
        characteristic = field.p
        d = g.degree()
    report = theorem_bound(args.a, args.b, d, characteristic)
    # json's indented encoder is pure Python: lay out the k list, up to 10^6 ints, here.
    ks = "[\n    " + ",\n    ".join(map(str, report.admissible_k)) + "\n  ]"
    text = json.dumps({**report.to_dict(), "admissible_k": ""}, indent=2)
    sys.stdout.write(text.replace('"admissible_k": ""', '"admissible_k": ' + ks, 1) + "\n")
    return 0


# -- image ----------------------------------------------------------------------


def _build_instance_or_exit(field_text, g_text, h_text, a_text, b_text):
    from .field import parse_field
    from .poly import parse_poly
    field = parse_field(field_text)
    g = parse_poly(g_text, field)
    h = parse_poly(h_text, field)
    A = _parse_elements(field, a_text, "--A")
    B = _parse_elements(field, b_text, "--B")
    inst, violations = check_instance(field, g, h, A, B)
    if violations:
        print("invalid instance:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return None
    return inst


def cmd_image(args) -> int:
    import json

    inst = _build_instance_or_exit(args.field, args.g, args.h, args.A, args.B)
    if inst is None:
        return 2
    values = image(inst)
    report = inst.bound_report()
    payload = {
        **inst.to_dict(),
        "image": [str(v) for v in values],
        "image_size": len(values),
        "theorem_bound": report.bound,
        "slack": len(values) - report.bound,
    }
    if payload["slack"] < 0:
        raise negative_slack_error(payload["field"], payload["g"], payload["h"],
                                   payload["A"], payload["B"], len(values),
                                   report.bound)
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


# -- certify ----------------------------------------------------------------------


def cmd_certify(args) -> int:
    import json

    from .certificate import build_certificate
    from .rng import Xoshiro256StarStar

    inst = _build_instance_or_exit(args.field, args.g, args.h, args.A, args.B)
    if inst is None:
        return 2
    field = inst.field
    if args.C is not None:
        C = _parse_elements(field, args.C, "--C")
    else:
        k = args.k if args.k is not None else inst.bound_report().best_k
        if not 0 <= k <= field.order:
            raise InvalidParametersError(
                f"cannot draw {k} distinct elements from a field of order {field.order}")
        rng = Xoshiro256StarStar(args.seed)
        C = [field.from_index(i) for i in rng.sample_indices(field.order, k)]
    cert = build_certificate(inst, C)
    _emit(lambda out: out.write(json.dumps(cert.to_dict(), indent=2) + "\n"),
          args.out)
    if cert.identity_holds:
        print(f"PASS: predicted matches pointwise sum ({cert.predicted})",
              file=sys.stderr)
        return 0
    print(f"FAIL: predicted {cert.predicted} but pointwise sum {cert.pointwise}",
          file=sys.stderr)
    return 1


# -- search ----------------------------------------------------------------------


def cmd_search(args) -> int:
    from .explore import SearchConfig, rank_search

    opts = _given(args, SearchConfig._fields + _OUTPUT_KEYS, "field", "g", "h", "a", "b")
    output = {key: opts.pop(key) for key in _OUTPUT_KEYS if key in opts}
    if "budget" not in opts and _ENV_BUDGET in os.environ:
        opts["budget"] = os.environ[_ENV_BUDGET]
    opts["a"], opts["b"] = _parse_sizes(opts["a"]), _parse_sizes(opts["b"])
    _numbers(opts, "sample_count", "seed", "parallelism", "budget")
    _emit_records(rank_search(SearchConfig(**opts)), output)
    return 0


# -- subfield ----------------------------------------------------------------------


_SUBFIELD_KEYS = ("field", "m", "c_fraction", "g", "h", "theta_count", "seed",
                  "random_a", "parallelism") + _OUTPUT_KEYS


def cmd_subfield(args) -> int:
    from .explore import rank_subfield

    opts = _given(args, _SUBFIELD_KEYS, "field", "m", "c_fraction")
    output = {key: opts.pop(key) for key in _OUTPUT_KEYS if key in opts}
    _numbers(opts, "c_fraction", "m", "theta_count", "seed", "parallelism")
    if "random_a" in opts:
        opts["random_a"] = _parse_bool(opts["random_a"])
    _emit_records(rank_subfield(**opts), output)
    return 0


# -- selftest ----------------------------------------------------------------------


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest()
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    passed = sum(1 for _, ok, _ in results if ok)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expander-lab",
        description="Exact lower bounds, certificates, and experiments for "
                    "image sets {g(x) + y*h(x)} over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    # image and certify: one explicit instance
    instance = argparse.ArgumentParser(add_help=False)
    for flag in ("--field", "--g", "--h"):
        instance.add_argument(flag, required=True)
    for flag in ("--A", "--B"):
        instance.add_argument(flag, required=True, help="comma-separated elements")

    # search and subfield: only the options given reach the namespace, so
    # config entries and the library's defaults fill in the rest
    sweep = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for flag in ("--field", "--g", "--h", "--seed", "--out"):
        sweep.add_argument(flag)
    sweep.add_argument("--parallelism",
                        help="must be >= 1; evaluation is single-threaded")
    sweep.add_argument("--format", choices=FORMATS)
    sweep.add_argument("--config", help="key=value file; flags override it")

    p = sub.add_parser("bound", help="compute the lower bound for sizes (a, b)")
    p.add_argument("--field", required=True,
                   help="prime, p^n, p^n/modulus, or inf")
    p.add_argument("--a", type=int, required=True, help="|A|")
    p.add_argument("--b", type=int, required=True, help="|B|")
    p.add_argument("--d", type=int, help="deg g (alternative to --g/--h)")
    p.add_argument("--g", help="polynomial g in x")
    p.add_argument("--h", help="polynomial h in x")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("image", parents=[instance],
                       help="evaluate the exact image of one instance")
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("certify", parents=[instance],
                       help="build and replay a certificate for one instance")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--C", help="explicit candidate set, comma-separated")
    group.add_argument("--k", type=int,
                       help="size of the random candidate set (default: best k)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random candidate set")
    p.add_argument("--out", help="write the certificate JSON here instead of stdout")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("search", parents=[sweep], argument_default=argparse.SUPPRESS,
                       help="sweep (A, B) pairs and rank them by slack")
    p.add_argument("--a", help="|A| as N or LO-HI")
    p.add_argument("--b", help="|B| as N or LO-HI")
    p.add_argument("--mode", choices=("exhaustive", "random"))
    p.add_argument("--sample-count")
    p.add_argument("--budget",
                   help="work budget: pairs in exhaustive mode, value "
                        f"evaluations in random mode (or ${_ENV_BUDGET})")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("subfield", parents=[sweep], argument_default=argparse.SUPPRESS,
                       help="measure image growth over a subfield plus one point")
    p.add_argument("--m", help="subfield degree, a proper divisor of n")
    p.add_argument("--c-fraction", help="|A| = ceil(c * p^m), 0 < c < 1")
    p.add_argument("--theta-count", help="sample this many external points instead of all")
    p.add_argument("--random-a", action="store_true",
                   help="draw A at random from the subfield instead of "
                        "taking the first elements")
    p.set_defaults(func=cmd_subfield)

    p = sub.add_parser("selftest", help="run the embedded check suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
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


if __name__ == "__main__":
    raise SystemExit(main())
