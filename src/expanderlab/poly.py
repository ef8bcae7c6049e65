"""Univariate polynomials over a finite field.

A :class:`Poly` over a :class:`~expanderlab.field.Field` is an immutable
tuple of its coefficients' canonical indices (position = degree, trailing
zeros stripped); arithmetic and evaluation run on the field's index ops, and
``coeffs``, ``coefficient`` and ``leading_coefficient`` build elements on
access.  The zero polynomial has degree ``NEG_INF`` so degree comparisons
stay numeric.

Text format: terms in ``x`` in the term grammar of :mod:`expanderlab.field`,
e.g. ``x^2+x`` or ``3*x^3+1``.  Coefficients are field elements in ``t``,
in parentheses when they have several terms: ``(2*t+1)*x^2+t*x+1``.
Parsing, printing and powers use the one routine for each in :mod:`expanderlab.field`.
"""

from __future__ import annotations

import itertools

from .errors import FieldMismatchError, InvalidParametersError, ParseError, _count
from .field import Field, FieldElem, _parse_terms, _power, _render_terms

NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "_coeffs")

    def __init__(self, field: Field, coeffs=()):
        """``coeffs``: a list or tuple, lowest degree first, of :meth:`Field.element` inputs."""
        if not isinstance(coeffs, (list, tuple)):
            raise ParseError(f"polynomial coefficients must be a list or tuple, got {coeffs!r}")
        self._store(field, [field.element(c).index() for c in coeffs])

    def _store(self, field: Field, coeffs: list) -> Poly:
        """Set the field and the coefficient indices, trailing zeros stripped."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_coeffs", tuple(coeffs))
        return self

    def _new(self, coeffs: list) -> Poly:
        """A polynomial over this field from coefficient indices."""
        return Poly.__new__(Poly)._store(self.field, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly, (self.field, self.coeffs)

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        """The coefficients as elements, lowest degree first."""
        return tuple(FieldElem(self.field, c) for c in self._coeffs)

    def degree(self):
        """Degree as an int; NEG_INF for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, exp: int) -> FieldElem:
        exp = _count(exp, "exponent", None)
        return FieldElem(self.field, self._coeffs[exp] if 0 <= exp < len(self._coeffs) else 0)

    def leading_coefficient(self) -> FieldElem:
        if not self._coeffs:
            raise InvalidParametersError("zero polynomial has no leading coefficient")
        return FieldElem(self.field, self._coeffs[-1])

    # -- arithmetic on coefficient indices ---------------------------------------

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
        add = self.field.index_ops()[0]
        return self._new([add(a, b) for a, b in
                          itertools.zip_longest(self._coeffs, o._coeffs, fillvalue=0)])

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
        sub = self.field.index_ops()[1]
        return self._new([sub(0, c) for c in self._coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        add, _, mul, _ = self.field.index_ops()
        out = [0] * (len(self._coeffs) + len(o._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(o._coeffs):
                out[i + j] = add(out[i + j], mul(a, b))
        return self._new(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Poly:
        return _power(self, e, Poly(self.field, (1,)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.field == other.field
                and self._coeffs == other._coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self._coeffs))

    # -- evaluation -------------------------------------------------------------

    def at_index(self, i: int) -> int:
        """The value's index at index ``i``, by Horner's rule on index ops."""
        add, _, mul, _ = self.field.index_ops()
        acc = 0
        for c in reversed(self._coeffs):
            acc = add(mul(acc, i), c)
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
    return Poly(field, [terms.get(i, 0) for i in range(max(terms) + 1)])
