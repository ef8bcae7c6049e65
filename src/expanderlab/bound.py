"""Lower bounds for image sets {g(x) + y*h(x) : x in A, y in B}.

Setting: g, h univariate over a finite field, d = deg g > deg h, A a set of
field elements avoiding the roots of h, B any set of field elements,
a = |A|, b = |B|.  If k satisfies

    b - 1 <= k <= (a - 1)/d + b - 1   and   binom(k, b-1) != 0 in the field,

then the image has more than k elements.  :func:`theorem_bound` scans all
such admissible k and reports the best one; :func:`corollary_bound` is the
closed-form consequence min(a/d + b - 1, p), floored to an integer.

``characteristic`` arguments accept a prime up to ``MAX_CHARACTERISTIC``
or ``math.inf``, the sentinel for characteristic zero, where no binomial
with 0 <= r <= k vanishes and the p-cap never binds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FieldMismatchError,
    InvalidParametersError,
    NotPrimeError,
)
from .field import Field, FieldElem, _check_field_size, canonical_sort, is_prime
from .poly import Poly

INF = math.inf


def _check_characteristic(characteristic) -> None:
    if characteristic == INF:
        return
    _check_field_size(characteristic)
    if not isinstance(characteristic, int) or not is_prime(characteristic):
        raise NotPrimeError(f"characteristic must be prime or inf, got {characteristic!r}")


def parse_characteristic(text: str):
    """Parse "13" or "inf"."""
    s = text.strip().lower()
    if s == "inf":
        return INF
    try:
        p = int(s)
    except ValueError:
        raise NotPrimeError(f"characteristic must be prime or inf, got {text!r}") from None
    _check_characteristic(p)
    return p


def lucas_nonvanishing(k: int, r: int, characteristic) -> bool:
    """Whether binom(k, r) is nonzero in characteristic p.

    For prime p this is the digit test: every base-p digit of r must be at
    most the corresponding digit of k.  For the infinite sentinel the
    binomial is an ordinary positive integer whenever 0 <= r <= k.
    """
    if k < 0 or r < 0:
        raise InvalidParametersError(f"k and r must be non-negative, got k={k}, r={r}")
    _check_characteristic(characteristic)
    return _digits_dominate(k, r, characteristic)


def _digits_dominate(k: int, r: int, characteristic) -> bool:
    """:func:`lucas_nonvanishing` for arguments already validated."""
    if r > k:
        return False
    if characteristic == INF:
        return True
    p = characteristic
    while r:
        if r % p > k % p:
            return False
        r //= p
        k //= p
    return True


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the admissible-k scan for one (a, b, d, characteristic).

    ``best_k`` is the largest admissible k; k = b - 1 always is one.
    ``fallback`` is always False and kept so the JSON keys stay as they are.
    """

    a: int
    b: int
    d: int
    characteristic: object
    k_max_range: int
    admissible_k: tuple[int, ...]
    best_k: int
    bound: int
    fallback: bool

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "d": self.d,
            "characteristic": ("inf" if self.characteristic == INF
                               else self.characteristic),
            "k_max_range": self.k_max_range,
            "admissible_k": list(self.admissible_k),
            "best_k": self.best_k,
            "bound": self.bound,
            "fallback": self.fallback,
        }


def theorem_bound(a: int, b: int, d: int, characteristic) -> BoundReport:
    """Best lower bound from the admissible-k scan.

    Scans k = b-1 .. floor((a-1)/d) + b - 1, keeps those whose binomial
    binom(k, b-1) survives in the given characteristic, and returns
    best_k + 1.  The scan covers the whole range because binomial
    nonvanishing mod p is not monotone in k.  k = b-1 always passes
    (binom(k, k) = 1), so the scan is never empty.  The characteristic is
    validated once, not per scanned k.
    """
    if a < 1 or b < 1 or d < 1:
        raise InvalidParametersError(f"need a, b, d >= 1, got a={a}, b={b}, d={d}")
    _check_characteristic(characteristic)
    k_max_range = (a - 1) // d + b - 1
    admissible = tuple(k for k in range(b - 1, k_max_range + 1)
                       if _digits_dominate(k, b - 1, characteristic))
    best_k = admissible[-1]
    return BoundReport(a, b, d, characteristic, k_max_range,
                       admissible, best_k, best_k + 1, False)


def corollary_bound(a: int, b: int, d: int, characteristic) -> int:
    """Closed form min(a/d + b - 1, p) as an integer: the rational is
    floored (the largest integer the strict inequality certifies) and the
    result never drops below 1, since a nonempty image has size >= 1."""
    if a < 1 or b < 1 or d < 1:
        raise InvalidParametersError(f"need a, b, d >= 1, got a={a}, b={b}, d={d}")
    _check_characteristic(characteristic)
    value = math.floor(Fraction(a, d) + b - 1)
    if characteristic != INF and characteristic < value:
        value = characteristic
    return max(1, value)


@dataclass(frozen=True)
class ExpanderInstance:
    """A validated (field, g, h, A, B) tuple; A and B are stored distinct
    and in canonical element order."""

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

    def bound_report(self) -> BoundReport:
        return theorem_bound(self.a, self.b, self.d, self.field.p)

    def to_dict(self) -> dict:
        return {"field": str(self.field), "g": str(self.g), "h": str(self.h),
                "A": [str(x) for x in self.A], "B": [str(y) for y in self.B]}


def check_degrees(g: Poly, h: Poly) -> None:
    """Raise :class:`InvalidParametersError` unless deg g > deg h with g
    non-constant and h nonzero, the hypotheses on the polynomials alone."""
    if h.is_zero() or g.degree() < 1 or not g.degree() > h.degree():
        raise InvalidParametersError(
            f"need deg g > deg h with g non-constant and h nonzero; "
            f"got deg g = {g.degree()}, deg h = {h.degree()}")


def check_instance(field: Field, g: Poly, h: Poly, A, B):
    """Validate the hypotheses for an (A, B) pair.

    Returns ``(instance, violations)``: a built :class:`ExpanderInstance`
    and an empty list when every hypothesis holds, otherwise ``None`` and
    the full list of human-readable violations (degree order, roots of h
    inside A, emptiness, duplicates).  Only structural type errors raise:
    polynomials over the wrong field are not a hypothesis violation but a
    programming mistake.
    """
    for f_, name in ((g, "g"), (h, "h")):
        if f_.field != field:
            raise FieldMismatchError(f"{name} is over {f_.field}, expected {field}")
    A = [field.element(x) for x in A]
    B = [field.element(y) for y in B]

    violations = []
    if not A:
        violations.append("A is empty")
    if not B:
        violations.append("B is empty")
    if len(set(A)) != len(A):
        violations.append("A contains duplicate elements")
    if len(set(B)) != len(B):
        violations.append("B contains duplicate elements")
    dg, dh = g.degree(), h.degree()
    if h.is_zero():
        violations.append("h is the zero polynomial")
    if dg < 1:
        violations.append(f"g is constant (deg g = {dg})")
    if not dg > dh:
        violations.append(f"deg g ≤ deg h ({dg} ≤ {dh})")
    if not h.is_zero():
        for x in canonical_sort(set(A)):
            if h(x).is_zero():
                violations.append(f"A contains root {x} of h")
    if violations:
        return None, violations
    return ExpanderInstance(field, g, h, canonical_sort(set(A)),
                            canonical_sort(set(B))), []


def value_rows(g: Poly, h: Poly, xs, ys) -> list[tuple[int, ...]]:
    """For each x in ``xs``, the canonical indices of g(x) + y*h(x) over
    ``ys``.  The one evaluation kernel: :func:`image` and the experiment
    drivers build these rows once and then measure image sizes as int sets."""
    rows = []
    for x in xs:
        gx, hx = g(x), h(x)
        rows.append(tuple((gx + y * hx).index() for y in ys))
    return rows


def image(instance: ExpanderInstance) -> tuple[FieldElem, ...]:
    """The exact set {g(x) + y*h(x) : x in A, y in B}, in canonical order."""
    rows = value_rows(instance.g, instance.h, instance.A, instance.B)
    return tuple(map(instance.field.from_index, sorted(set().union(*rows))))
