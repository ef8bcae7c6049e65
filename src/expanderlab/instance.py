"""Instances of the theorem: a field, g, h and the point sets A and B.

:func:`check_instance` returns an :class:`ExpanderInstance` or one error
listing every hypothesis the (A, B) pair breaks: :func:`check_degrees` on
the polynomials, :func:`_distinct_points` on each point set and the roots
of h inside A.  The certificate solvers and the search drivers call those
checks on their own.  :func:`_read_polys` reads the command line's field,
g and h texts, for ``bound --g/--h`` and :func:`_build_instance`, which
reads an instance, and :func:`negative_slack_error` is the one fatal
error for an image below the proved bound.

:func:`value_rows` is the one evaluation kernel, which :func:`image`, the
certificate and the search drivers read f off, and :func:`cmd_image` is
the ``image`` subcommand.  The theorem lives in :mod:`expanderlab.bound`,
which imports this module nowhere, so ``bound --d`` compiles neither this
layer nor the field layer it needs.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from . import bound as bound_mod
from .errors import FieldMismatchError, InternalInvariantError, InvalidParametersError, ParseError
from .field import Field, FieldElem, canonical_sort, parse_field
from .poly import Poly, parse_poly


class ExpanderInstance(NamedTuple):
    """A (field, g, h, A, B) tuple as :func:`check_instance` returns it: A
    and B distinct and in canonical element order.  A hand-built tuple is
    not validated; :func:`~expanderlab.certificate.build_certificate`
    refuses one that breaks :func:`check_degrees` or repeats a point."""

    field: Field
    g: Poly
    h: Poly
    A: tuple[FieldElem, ...]
    B: tuple[FieldElem, ...]

    @property
    def a(self) -> int:
        return len(self.A)

    @property
    def b(self) -> int:
        return len(self.B)

    @property
    def d(self) -> int:
        return self.g.degree()

    def bound_report(self) -> bound_mod.BoundReport:
        return bound_mod.theorem_bound(self.a, self.b, self.d, self.field.p)

    def to_dict(self) -> dict:
        return {"field": str(self.field), "g": str(self.g), "h": str(self.h),
                "A": [str(x) for x in self.A], "B": [str(y) for y in self.B]}


def check_degrees(g: Poly, h: Poly) -> None:
    """Raise :class:`InvalidParametersError` unless deg g > deg h with g
    non-constant and h nonzero, the hypotheses on the polynomials alone.
    The one degree check: :func:`check_instance` lists its message."""
    if h.is_zero() or g.degree() < 1 or not g.degree() > h.degree():
        raise InvalidParametersError("need deg g > deg h with g non-constant and h nonzero (got "
            + ", ".join(f"{n} is the zero polynomial" if f.is_zero() else f"deg {n} = {f.degree()}"
                        for n, f in (("g", g), ("h", h))) + ")")


def _distinct_points(points, name: str, nonempty=True) -> tuple[FieldElem, ...]:
    """``points`` in canonical order, or the error for a set that is empty (unless
    not ``nonempty``), mixes fields or repeats a point: the one point-set check,
    which :func:`check_instance` lists for A and B and the certificate solvers raise."""
    points = canonical_sort(points)
    if nonempty and not points:
        raise InvalidParametersError(f"{name} is empty")
    fields = {x.field for x in points}
    if len(fields) > 1:
        raise FieldMismatchError(f"{name} mixes elements of {', '.join(sorted(map(str, fields)))}")
    if len(set(points)) != len(points):
        raise InvalidParametersError(f"{name} contains duplicate elements")
    return points


def check_instance(field: Field, g: Poly, h: Poly, A, B) -> ExpanderInstance:
    """The :class:`ExpanderInstance` of an (A, B) pair, or one
    :class:`InvalidParametersError` listing every violated hypothesis: A and
    B in :func:`_distinct_points`'s words, the degrees in :func:`check_degrees`'s
    and the roots of h inside A.  Polynomials over the wrong field raise
    :class:`FieldMismatchError`, a programming mistake, not a violation.
    """
    for f_, name in ((g, "g"), (h, "h")):
        if not isinstance(f_, Poly):
            raise ParseError(f"{name} must be a Poly, got {f_!r}")
        if f_.field != field:
            raise FieldMismatchError(f"{name} is over {f_.field}, expected {field}")
    A = canonical_sort(field.element(x) for x in A)
    B = canonical_sort(field.element(y) for y in B)

    violations = []
    for points, name in ((A, "A"), (B, "B")):
        try:
            _distinct_points(points, name)
        except InvalidParametersError as exc:
            violations.append(str(exc))
    try:
        check_degrees(g, h)
    except InvalidParametersError as exc:
        violations.append(str(exc))
    if not h.is_zero():
        for x in canonical_sort(set(A)):
            if h(x).is_zero():
                violations.append(f"A contains root {x} of h")
    if violations:
        raise InvalidParametersError("invalid instance: " + "; ".join(violations))
    return ExpanderInstance(field, g, h, A, B)


def _parse_elements(field: Field, text: str, option: str) -> list[FieldElem]:
    """Comma-separated elements; a blank argument is the empty set."""
    items = text.split(",") if text.strip() else []
    if not all(item.strip() for item in items):
        raise ParseError(f"{option}: empty item in {text!r}")
    return [field.parse_element(item) for item in items]


def _read_polys(opts: dict) -> tuple[Field, Poly, Poly]:
    """The field, g and h of the command line's texts, read in that order."""
    field = parse_field(opts["field"])
    return field, parse_poly(opts["g"], field), parse_poly(opts["h"], field)


def _build_instance(opts: dict) -> ExpanderInstance:
    """The checked instance of the command line's field, g, h, A and B texts."""
    field, g, h = _read_polys(opts)
    A = _parse_elements(field, opts["A"], "--A")
    B = _parse_elements(field, opts["B"], "--B")
    return check_instance(field, g, h, A, B)


def _sets_text(A, B) -> str:
    """'A={..} B={..}' for sequences of element strings."""
    return f"A={{{','.join(A)}}} B={{{','.join(B)}}}"


def negative_slack_error(field_s, g_s, h_s, A, B, size, tb):
    """The fatal error for an image smaller than the proved bound, naming
    the witness configuration; A and B are sequences of element strings."""
    return InternalInvariantError(
        f"negative slack {size - tb}: image_size {size} below bound {tb} "
        f"for field={field_s} g={g_s} h={h_s} {_sets_text(A, B)}")


def value_rows(g: Poly, h: Poly, xs, ys) -> list[tuple[int, ...]]:
    """For each index x in ``xs``, the indices of g(x) + y*h(x) over the index
    sequence ``ys``.  The one evaluation kernel: :func:`image` and the drivers
    build these rows once and measure image sizes from them.  Per x, g(x) and
    h(x) are :meth:`Poly.at_index`; each value is two index ops."""
    add, _, mul, _ = g.field.index_ops()
    rows = []
    for x in xs:
        gx, hx = g.at_index(x), h.at_index(x)
        rows.append(tuple(add(gx, mul(y, hx)) for y in ys))
    return rows


def image(instance: ExpanderInstance) -> tuple[FieldElem, ...]:
    """The exact set {g(x) + y*h(x) : x in A, y in B}, in canonical order."""
    rows = value_rows(instance.g, instance.h, [x.index() for x in instance.A],
                      [y.index() for y in instance.B])
    return tuple(map(instance.field.from_index, sorted(set().union(*rows))))


def cmd_image(opts: dict) -> int:
    """The ``image`` subcommand: the instance, its image and its slack as JSON."""
    import json

    inst = _build_instance(opts)
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
