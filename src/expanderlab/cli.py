"""Command-line interface.

Subcommands: bound, image, certify, search, subfield, selftest.  Data goes
to stdout (or --out); diagnostics, violations, and summary lines go to
stderr.  Exit codes: 0 success, 1 a proved identity failed to replay
(a bug, not bad input), 2 invalid input or parameters.

search and subfield accept --config FILE with flat key=value lines;
explicit flags override the file.  The environment variable
EXPANDER_LAB_BUDGET overrides the built-in search budget and is itself
overridden by a config file or flag.  No output contains timestamps or
machine identifiers: the same invocation produces the same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bound import (
    check_degrees,
    check_instance,
    image,
    parse_characteristic,
    theorem_bound,
)
from .certificate import build_certificate
from .errors import InternalInvariantError, InvalidParametersError, ParseError, ValidationError
from .explore import (
    DEFAULT_BUDGET,
    FORMATS,
    SearchConfig,
    negative_slack_error,
    parse_c,
    search_extremal,
    subfield_experiment,
    summarize,
    write_records,
)
from .field import parse_field
from .poly import parse_poly
from .rng import Xoshiro256StarStar
from .selftest import run_selftest

_ENV_BUDGET = "EXPANDER_LAB_BUDGET"


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
    if isinstance(value, bool):
        return value
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


def _merge_options(args, defaults: dict) -> dict:
    """defaults, then config file entries, then explicit flags."""
    opts = dict(defaults)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        for key, value in _read_config(cfg_path).items():
            if key not in defaults:
                raise InvalidParametersError(f"unknown config key {key!r}")
            opts[key] = value
    for key in defaults:
        if hasattr(args, key):
            opts[key] = getattr(args, key)
    return opts


def _require(opts: dict, *keys: str) -> None:
    missing = [k for k in keys if opts[k] is None]
    if missing:
        raise InvalidParametersError(
            "missing required option(s): " + ", ".join("--" + k.replace("_", "-")
                                                       for k in missing))


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


def _emit_records(records, opts: dict) -> None:
    """Records to stdout or --out, then the summary to stderr.  A format
    from a config file is checked here, after the run, before --out opens."""
    fmt = str(opts["format"])
    if fmt not in FORMATS:
        raise InvalidParametersError(f"unknown format {fmt!r}")
    _emit(lambda out: write_records(records, fmt, out), opts["out"])
    print(summarize(records), file=sys.stderr)


# -- bound ----------------------------------------------------------------------


def cmd_bound(args) -> int:
    field_text = args.field.strip()
    given = (args.d is not None, args.g is not None, args.h is not None)
    if given not in ((True, False, False), (False, True, True)):
        raise InvalidParametersError("provide either --d or both --g and --h")
    if args.d is not None:
        if "^" in field_text or "/" in field_text:
            characteristic = parse_field(field_text).p
        else:
            characteristic = parse_characteristic(field_text)
        d = args.d
    else:
        if field_text.lower() == "inf":
            raise InvalidParametersError(
                "--g/--h need a finite field; use --d with --field inf")
        field = parse_field(field_text)
        g = parse_poly(args.g, field)
        h = parse_poly(args.h, field)
        check_degrees(g, h)
        characteristic = field.p
        d = g.degree()
    report = theorem_bound(args.a, args.b, d, characteristic)
    sys.stdout.write(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


# -- image ----------------------------------------------------------------------


def _build_instance_or_exit(field_text, g_text, h_text, a_text, b_text):
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


_SEARCH_DEFAULTS = dict(field=None, g=None, h=None, a=None, b=None,
                        mode="exhaustive", sample_count="100", seed="0",
                        parallelism="1", budget=None, format="csv", out=None)


def cmd_search(args) -> int:
    opts = _merge_options(args, _SEARCH_DEFAULTS)
    _require(opts, "field", "g", "h", "a", "b")
    budget = opts["budget"]
    if budget is None:
        budget = os.environ.get(_ENV_BUDGET, DEFAULT_BUDGET)
    a, b = _parse_sizes(opts["a"]), _parse_sizes(opts["b"])
    try:
        config = SearchConfig(
            field=opts["field"], g=opts["g"], h=opts["h"], a=a, b=b,
            mode=str(opts["mode"]),
            sample_count=int(opts["sample_count"]),
            seed=int(opts["seed"]),
            parallelism=int(opts["parallelism"]),
            budget=int(budget),
        )
    except ValueError as exc:
        raise InvalidParametersError(f"bad numeric option: {exc}") from None
    _emit_records(search_extremal(config), opts)
    return 0


# -- subfield ----------------------------------------------------------------------


_SUBFIELD_DEFAULTS = dict(field=None, m=None, c_fraction=None, g="x^2", h="x",
                          theta_count=None, seed="0", random_a=False,
                          parallelism="1", format="csv", out=None)


def cmd_subfield(args) -> int:
    opts = _merge_options(args, _SUBFIELD_DEFAULTS)
    _require(opts, "field", "m", "c_fraction")
    try:
        c_text = str(opts["c_fraction"])
        parse_c(c_text)     # bad text is a bad numeric option
        m = int(opts["m"])
        theta_count = None if opts["theta_count"] is None else int(opts["theta_count"])
        seed = int(opts["seed"])
        parallelism = int(opts["parallelism"])
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParametersError(f"bad numeric option: {exc}") from None
    _emit_records(subfield_experiment(
        str(opts["field"]), m, c_text, g=str(opts["g"]), h=str(opts["h"]),
        theta_count=theta_count, seed=seed,
        random_a=_parse_bool(opts["random_a"]), parallelism=parallelism), opts)
    return 0


# -- selftest ----------------------------------------------------------------------


def cmd_selftest(args) -> int:
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

    p = sub.add_parser("bound", help="compute the lower bound for sizes (a, b)")
    p.add_argument("--field", required=True,
                   help="prime, p^n, p^n/modulus, or inf")
    p.add_argument("--a", type=int, required=True, help="|A|")
    p.add_argument("--b", type=int, required=True, help="|B|")
    p.add_argument("--d", type=int, help="deg g (alternative to --g/--h)")
    p.add_argument("--g", help="polynomial g in x")
    p.add_argument("--h", help="polynomial h in x")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("image", help="evaluate the exact image of one instance")
    p.add_argument("--field", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--A", required=True, help="comma-separated elements")
    p.add_argument("--B", required=True, help="comma-separated elements")
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("certify",
                       help="build and replay a certificate for one instance")
    p.add_argument("--field", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--C", help="explicit candidate set, comma-separated")
    group.add_argument("--k", type=int,
                       help="size of the random candidate set (default: best k)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random candidate set")
    p.add_argument("--out", help="write the certificate JSON here instead of stdout")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("search",
                       help="sweep (A, B) pairs and rank them by slack")
    p.add_argument("--field", default=argparse.SUPPRESS)
    p.add_argument("--g", default=argparse.SUPPRESS)
    p.add_argument("--h", default=argparse.SUPPRESS)
    p.add_argument("--a", default=argparse.SUPPRESS, help="|A| as N or LO-HI")
    p.add_argument("--b", default=argparse.SUPPRESS, help="|B| as N or LO-HI")
    p.add_argument("--mode", choices=("exhaustive", "random"),
                   default=argparse.SUPPRESS)
    p.add_argument("--sample-count", dest="sample_count", default=argparse.SUPPRESS)
    p.add_argument("--seed", default=argparse.SUPPRESS)
    p.add_argument("--parallelism", default=argparse.SUPPRESS,
                   help="must be >= 1; evaluation is single-threaded")
    p.add_argument("--budget", default=argparse.SUPPRESS,
                   help="work budget: pairs in exhaustive mode, value "
                        f"evaluations in random mode (or ${_ENV_BUDGET})")
    p.add_argument("--format", choices=FORMATS,
                   default=argparse.SUPPRESS)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.add_argument("--config", help="key=value file; flags override it")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("subfield",
                       help="measure image growth over a subfield plus one point")
    p.add_argument("--field", default=argparse.SUPPRESS)
    p.add_argument("--m", default=argparse.SUPPRESS,
                   help="subfield degree, a proper divisor of n")
    p.add_argument("--c-fraction", dest="c_fraction", default=argparse.SUPPRESS,
                   help="|A| = ceil(c * p^m), 0 < c < 1")
    p.add_argument("--g", default=argparse.SUPPRESS)
    p.add_argument("--h", default=argparse.SUPPRESS)
    p.add_argument("--theta-count", dest="theta_count", default=argparse.SUPPRESS,
                   help="sample this many external points instead of all")
    p.add_argument("--seed", default=argparse.SUPPRESS)
    p.add_argument("--random-a", dest="random_a", action="store_true",
                   default=argparse.SUPPRESS,
                   help="draw A at random from the subfield instead of "
                        "taking the first elements")
    p.add_argument("--parallelism", default=argparse.SUPPRESS,
                   help="must be >= 1; evaluation is single-threaded")
    p.add_argument("--format", choices=FORMATS,
                   default=argparse.SUPPRESS)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.add_argument("--config", help="key=value file; flags override it")
    p.set_defaults(func=cmd_subfield)

    p = sub.add_parser("selftest", help="run the embedded check suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
