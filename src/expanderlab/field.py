"""Exact arithmetic in prime fields F_p and extensions F_{p^n}.

A :class:`FieldElem` is its index in the canonical enumeration: the
base-p digits of the index are its coefficients in the power basis of the
modulus root ``t``, lowest first.  All element arithmetic is
:meth:`Field.index_ops` on indices: arithmetic mod p in a prime field, or
in an extension exp/log and Zech tables (alpha^e + 1 = alpha^Z[e]; Huber,
IEEE Trans. Inf. Theory 36(4), 1990), built on the field's first
arithmetic and checked while they are filled.  The same tables list the
proper subfields in closed form.  What only an extension runs (its
modulus, the irreducibility test, the tables) lives in
:mod:`expanderlab.extension`, which this module imports only for n > 1, so
an invocation over a prime field never compiles it.  Fields in scope are
desk-sized (``MAX_CHARACTERISTIC``, ``MAX_EXTENSION_ORDER``), so the
primality, irreducibility, root and primitive-element searches are
deliberately brute force; the limits and their one check live in ``bound``.

Text formats:
  field    "5", "3^2" (default modulus), "3^2/t^2+1" (explicit modulus)
  element  prime field: a decimal integer; extension: a polynomial in t,
           e.g. "2*t+1" (coefficients reduced mod p on parse)

Elements, moduli and :mod:`expanderlab.poly` polynomials share one grammar,
read by :func:`_parse_terms`, printed by :func:`_render_terms`: ``c*VAR^e``
terms joined by ``+``/``-``, ``*`` and spaces optional, ``−`` read as ``-``,
repeated exponents summed, no empty term, exponents <= ``MAX_EXPONENT``.
"""

from __future__ import annotations

import operator

from .bound import _check_characteristic    # the one check, with the limits
from .errors import FieldMismatchError, InvalidParametersError, ParseError


# ---------------------------------------------------------------------------
# The one term grammar, shared by elements, moduli and polynomials.

# Moduli and polynomials are stored densely, so larger exponents are refused
# rather than let a typo such as x^999999999 exhaust memory.
MAX_EXPONENT = 10**6


def _split_terms(s: str) -> list[str]:
    """Split on '+'/'-' outside parentheses, keeping each term's sign."""
    terms, cur, depth = [], "", 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {s!r}")
        if ch in "+-" and depth == 0 and cur:
            terms.append(cur)
            cur = ""
        cur += ch
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {s!r}")
    if cur:
        terms.append(cur)
    return terms


def _parse_terms(text: str, var: str, coeff) -> dict:
    """Parse terms 'c*VAR^e' joined by '+'/'-' into {exponent: summed
    coefficient}; ``coeff`` reads the text of c, "1" when it is omitted.
    A ValueError from ``coeff`` is reported as a bad term, while a
    ParseError passes through."""
    s = text.replace("−", "-").replace(" ", "")
    if not s:
        raise ParseError("empty expression")
    out: dict = {}
    for term in _split_terms(s):
        body = term[1:] if term[0] in "+-" else term
        if not body:
            raise ParseError(f"dangling sign in {text!r}")
        head, has_var, tail = body.partition(var)
        try:
            if head == "*" or (tail and not tail.startswith("^")):
                raise ValueError
            exp = int(tail[1:]) if tail else (1 if has_var else 0)
            if has_var:
                head = head.removesuffix("*")
            c = coeff(head or "1")
        except ParseError:
            raise
        except ValueError:
            raise ParseError(f"bad term {term!r} in {text!r}") from None
        if exp > MAX_EXPONENT:
            raise ParseError(f"exponent {exp} in {text!r} exceeds {MAX_EXPONENT}")
        if term[0] == "-":
            c = -c
        out[exp] = out[exp] + c if exp in out else c
    return out


# ---------------------------------------------------------------------------


class Field:
    """A finite field F_{p^n}, with n = 1 meaning the prime field F_p.

    ``Field(p, n=1, modulus=None)`` and :func:`parse_field` are the only
    constructors; both validate everything.  For n > 1 with ``modulus``
    omitted, the lexicographically smallest monic irreducible of degree n
    is chosen (coefficient tuples compared low-degree-first), so
    construction is reproducible without tables.  ``modulus`` may be a
    coefficient sequence (index = degree), a text form like "t^2+1", or a
    polynomial over F_p.  Immutable after construction.  A prime field's
    index ops are built with it; an extension's modulus is read and its
    tables built by :mod:`expanderlab.extension`, loaded only for n > 1.
    """

    __slots__ = ("p", "n", "modulus", "_tables")

    def __init__(self, p: int, n: int = 1, modulus=None):
        _check_characteristic(p, n)
        if not isinstance(n, int) or n < 1:
            raise ParseError(f"extension degree must be a positive integer, got {n!r}")
        if n == 1:
            if modulus is not None:
                raise ParseError(f"modulus {modulus!r} given for the prime field F_{p}")
        else:   # a given modulus is read only once p is known to be a valid prime
            from . import extension    # compiled only by a p^n field
            modulus = extension._modulus(p, n, modulus)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modulus", modulus)
        # (exp, index ops): a prime field's now, an extension's on first use.
        object.__setattr__(self, "_tables", None if n > 1 else (None, (
            lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
            lambda a, b: a * b % p,
            lambda a: pow(a, -1, p) if a else self._invert_zero())))

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor; an extension's
        # tables are built again on first use
        return Field, (self.p, self.n, self.modulus)

    # -- identity ----------------------------------------------------------

    @property
    def order(self) -> int:
        return self.p ** self.n

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field) and self.p == other.p
                and self.n == other.n and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __str__(self) -> str:
        if self.n == 1:
            return str(self.p)
        return f"{self.p}^{self.n}/{_render_terms(self.modulus, 't')}"

    def __repr__(self) -> str:
        return f"Field({self})"

    # -- element constructors ----------------------------------------------

    def zero(self) -> FieldElem:
        return FieldElem(self, 0)

    def one(self) -> FieldElem:
        return FieldElem(self, 1)

    def element(self, value) -> FieldElem:
        """Build an element from an integer (constant embed), coefficient
        sequence, or an existing element of this field."""
        if isinstance(value, FieldElem):
            if value.field != self:
                raise FieldMismatchError(f"element of {value.field} used in {self}")
            return value
        if isinstance(value, int):
            return FieldElem(self, value % self.p)
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) != self.n:
            raise ParseError(f"need {self.n} coefficients, got {len(coeffs)}")
        return FieldElem(self, sum(c * self.p ** k for k, c in enumerate(coeffs)))

    def from_index(self, i: int) -> FieldElem:
        """Element number i in the canonical enumeration (base-p digits,
        coeffs[0] least significant)."""
        if not 0 <= i < self.order:
            raise ParseError(f"index {i} out of range for {self}")
        return FieldElem(self, i)

    def parse_element(self, text: str) -> FieldElem:
        i = 0
        for exp, c in _parse_terms(text, "t", int).items():
            if exp >= self.n:
                raise ParseError(
                    f"{text!r}: exponent {exp} outside the power basis of {self}")
            i += c % self.p * self.p ** exp
        return FieldElem(self, i)

    # -- enumeration and subfields -------------------------------------------

    def elements(self) -> tuple[FieldElem, ...]:
        """All p^n elements in canonical order: ``subfield(n)``."""
        return self.subfield(self.n)

    def subfield(self, m: int) -> tuple[FieldElem, ...]:
        """The unique subfield of order p^m in canonical order, built on each
        call.  For m < n it is 0 and the powers of alpha^((q-1)/(p^m-1)), read
        off the exp table (Lidl & Niederreiter, *Finite Fields*, 2.1); m = n,
        the whole field, builds no table."""
        if not isinstance(m, int) or m < 1 or self.n % m != 0:
            raise InvalidParametersError(f"{m} does not divide extension degree {self.n}")
        if m == self.n:
            return tuple(FieldElem(self, i) for i in range(self.order))
        self.index_ops()      # an extension's exp table, built on first use
        step = (self.order - 1) // (self.p ** m - 1)
        return tuple(FieldElem(self, i) for i in sorted([0, *self._tables[0][::step]]))

    # -- arithmetic on canonical indices -------------------------------------

    def index_ops(self):
        """``(add, sub, mul, inv)`` on canonical element indices, behind
        every :class:`FieldElem` operator and the kernels' hot loops.  In a
        prime field they are arithmetic mod p, built with the field; in an
        extension they read the tables of ``extension._build_tables``, built
        in O(q) steps on the first call and then reused."""
        if self._tables is None:
            from . import extension
            object.__setattr__(self, "_tables", extension._build_tables(self))
        return self._tables[1]

    def _invert_zero(self):
        raise ZeroDivisionError(f"inverse of zero in {self}")


class FieldElem:
    """An element of a :class:`Field`, stored as its canonical index.

    Immutable and hashable; arithmetic via the usual operators, all on the
    field's index ops.  Mixing operands from different fields raises
    :class:`FieldMismatchError`; plain ints are embedded as constants.  An
    element hashes as its index and equals an int c only if 0 <= c < p and
    it is the constant c: in F_13, element(3) != 16; in 3^2, element(1) != 4.
    """

    __slots__ = ("field", "_index")

    def __init__(self, field: Field, index: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    def __reduce__(self):
        return FieldElem, (self.field, self._index)

    def _index_of(self, other):
        """The index of an operand: an element of this field, or an int
        embedded as a constant; NotImplemented for any other type."""
        if isinstance(other, FieldElem):
            if other.field is self.field or other.field == self.field:
                return other._index
            raise FieldMismatchError(f"{other.field} element used in {self.field}")
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        j, f = self._index_of(other), self.field
        return j if j is NotImplemented else FieldElem(f, f.index_ops()[0](self._index, j))

    __radd__ = __add__

    def __sub__(self, other):
        j, f = self._index_of(other), self.field
        return j if j is NotImplemented else FieldElem(f, f.index_ops()[1](self._index, j))

    def __rsub__(self, other):
        j, f = self._index_of(other), self.field
        return j if j is NotImplemented else FieldElem(f, f.index_ops()[1](j, self._index))

    def __mul__(self, other):
        j, f = self._index_of(other), self.field
        return j if j is NotImplemented else FieldElem(f, f.index_ops()[2](self._index, j))

    __rmul__ = __mul__

    def __neg__(self):
        f = self.field
        return FieldElem(f, f.index_ops()[1](0, self._index))

    def __pow__(self, e: int):
        return _power(self, e, self.field.one())

    def inverse(self) -> FieldElem:
        f = self.field
        return FieldElem(f, f.index_ops()[3](self._index))

    def __truediv__(self, other):
        j = self._index_of(other)
        return j if j is NotImplemented else self * FieldElem(self.field, j).inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return 0 <= other < self.field.p and self._index == other
        return (isinstance(other, FieldElem) and self._index == other._index
                and self.field == other.field)

    def __hash__(self) -> int:
        return hash(self._index)

    def __bool__(self) -> bool:
        return self._index != 0

    def is_zero(self) -> bool:
        return self._index == 0

    def index(self) -> int:
        """Position in the canonical enumeration of the field."""
        return self._index

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients in the power basis of t, lowest first: the base-p
        digits of the index."""
        p, i, out = self.field.p, self._index, []
        for _ in range(self.field.n):
            out.append(i % p)
            i //= p
        return tuple(out)

    def __str__(self) -> str:
        if self.field.n == 1:
            return str(self._index)
        return _render_terms(self.coeffs, "t")

    def __repr__(self) -> str:
        return f"FieldElem({self.field}, {self})"


def _render_terms(coeffs, var: str, text=str) -> str:
    """Render coefficients (index = exponent) as 'c*VAR^e' terms, highest first;
    ``text`` renders c, and the term is dropped if that reads "0", bare if "1"."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = text(coeffs[e])
        if c == "0":
            continue
        if e == 0:
            parts.append(c)
        else:
            head = "" if c == "1" else f"{c}*"
            parts.append(f"{head}{var}" if e == 1 else f"{head}{var}^{e}")
    return "+".join(parts) if parts else "0"


def _power(base, e: int, one, mul=operator.mul):
    """base**e for an integer e >= 0, by square-and-multiply from ``one``
    with the product ``mul``."""
    if not isinstance(e, int) or e < 0:
        raise InvalidParametersError("exponent must be a non-negative integer")
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    return acc


# ---------------------------------------------------------------------------
# Public constructors.


def parse_field(text: str) -> Field:
    """Parse "p", "p^n", or "p^n/modulus" (e.g. "3^2/t^2+1")."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty field description")
    head, slash, mod_text = s.partition("/")
    try:
        if "^" in head:
            p_text, _, n_text = head.partition("^")
            p, n = int(p_text), int(n_text)
        else:
            p, n = int(head), 1
    except ValueError:
        raise ParseError(f"bad field description {text!r}") from None
    return Field(p, n, mod_text if slash else None)


def canonical_sort(elems) -> tuple[FieldElem, ...]:
    """Sort elements by their canonical enumeration index."""
    return tuple(sorted(elems, key=lambda e: e.index()))
