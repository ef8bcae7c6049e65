"""Univariate polynomials over a finite field.

A :class:`Poly` is an immutable coefficient tuple (index = degree, trailing
zeros stripped) over a :class:`~expanderlab.field.Field`.  The zero
polynomial has degree ``NEG_INF`` so degree comparisons stay numeric.

Text format: terms in ``x`` in the term grammar of :mod:`expanderlab.field`,
e.g. ``x^2+x`` or ``3*x^3+1``.  Coefficients are field elements in ``t``,
in parentheses when they have several terms: ``(2*t+1)*x^2+t*x+1``.
Parsing, printing and powers use the one routine for each in :mod:`expanderlab.field`.
"""

from __future__ import annotations

from .errors import FieldMismatchError, ZeroPolynomialError
from .field import Field, FieldElem, _parse_terms, _power, _render_terms

NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        elems = [field.element(c) for c in coeffs]
        while elems and elems[-1].is_zero():
            elems.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(elems))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, field: Field, value) -> Poly:
        return cls(field, (value,))

    # -- structure -----------------------------------------------------------

    def degree(self):
        """Degree as an int; NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exp: int) -> FieldElem:
        if 0 <= exp < len(self.coeffs):
            return self.coeffs[exp]
        return self.field.zero()

    def leading_coefficient(self) -> FieldElem:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> Poly:
        if isinstance(other, Poly):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"polynomial over {other.field} used over {self.field}")
            return other
        if isinstance(other, (int, FieldElem)):
            return Poly(self.field, (other,))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        size = max(len(self.coeffs), len(o.coeffs))
        return Poly(self.field, [self.coefficient(i) + o.coefficient(i) for i in range(size)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.is_zero() or o.is_zero():
            return Poly(self.field)
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Poly:
        return _power(self, e, Poly(self.field, (1,)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    # -- evaluation -------------------------------------------------------------

    def at_index(self, i: int) -> int:
        """The value's index at index ``i``, by Horner's rule on index ops."""
        add, _, mul, _ = self.field.index_ops()
        acc = 0
        for c in reversed(self.coeffs):
            acc = add(mul(acc, i), c.index())
        return acc

    def __call__(self, x) -> FieldElem:
        return FieldElem(self.field, self.at_index(self.field.element(x).index()))

    def roots(self) -> tuple[FieldElem, ...]:
        """All roots in the field, by a scan of every index, in canonical order."""
        return tuple(self.field.from_index(i) for i in range(self.field.order)
                     if not self.at_index(i))

    # -- text ---------------------------------------------------------------------

    def __str__(self) -> str:
        return _render_terms(self.coeffs, "x",
                             lambda c: f"({c})" if "+" in str(c) else str(c))

    def __repr__(self) -> str:
        return f"Poly({self.field}, {self})"


def parse_poly(text: str, field: Field) -> Poly:
    """Parse a polynomial in ``x`` over ``field``; see the module docstring
    for the grammar."""
    def coeff(c_text: str) -> FieldElem:
        if c_text.startswith("(") and c_text.endswith(")"):
            c_text = c_text[1:-1]
        return field.parse_element(c_text)

    terms = _parse_terms(text, "x", coeff)
    zero = field.zero()
    return Poly(field, [terms.get(i, zero) for i in range(max(terms) + 1)])
