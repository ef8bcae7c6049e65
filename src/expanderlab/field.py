"""Exact arithmetic in prime fields F_p and extensions F_{p^n}.

Elements are coefficient vectors in the power basis of the modulus root
``t``; all arithmetic is exact integer arithmetic mod p.  Fields in scope
are desk-sized (``MAX_CHARACTERISTIC``, ``MAX_EXTENSION_ORDER``), so the
primality, irreducibility and root checks are deliberately brute force.

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

import itertools

from .errors import (
    FieldMismatchError,
    InvalidParametersError,
    NotDivisorError,
    NotIrreducibleError,
    NotPrimeError,
    ParseError,
)

MAX_CHARACTERISTIC = 10**12    # the brute-force tests below stay fast under these
MAX_EXTENSION_ORDER = 10**5


def _check_field_size(p, n=1) -> None:
    """Refuse p, or p^n for n > 1, above its limit; as 2^64 exceeds it, n is capped."""
    if not (isinstance(p, int) and isinstance(n, int)):
        return
    if p > MAX_CHARACTERISTIC:
        raise InvalidParametersError(f"characteristic {p} over the limit {MAX_CHARACTERISTIC}")
    if n > 1 and p > 1 and p ** min(n, 64) > MAX_EXTENSION_ORDER:
        raise InvalidParametersError(f"{p}^{n} elements over the limit {MAX_EXTENSION_ORDER}")


def is_prime(p: int) -> bool:
    """Trial-division primality test; fine at the scales this library targets."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# Internal helpers on raw coefficient lists over F_p (index = degree).
# Used for modulus arithmetic before any Field object exists.


def _vec_trim(u: list[int]) -> list[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _vec_mul(u: list[int], v: list[int], p: int) -> list[int]:
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
    return _vec_trim(out)

def _vec_mod(u: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of u modulo a monic m."""
    r = [c % p for c in u]
    _vec_trim(r)
    dm = len(m) - 1
    while len(r) - 1 >= dm:
        shift = len(r) - 1 - dm
        lead = r[-1]
        for i, c in enumerate(m):
            r[shift + i] = (r[shift + i] - lead * c) % p
        _vec_trim(r)
    return r


def _vec_eval(u: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(u):
        acc = (acc * x + c) % p
    return acc


def _vec_inverse_mod(u: list[int], m: list[int], p: int) -> list[int]:
    """Inverse of u modulo monic irreducible m, by the extended Euclidean algorithm."""
    # Invariants: r0 = s0*u mod m, r1 = s1*u mod m.
    r0, r1 = [c % p for c in m], _vec_mod(u, m, p)
    s0, s1 = [], [1]
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    while r1:
        # Divide r0 by r1 (r1 need not be monic).
        lead_inv = pow(r1[-1], p - 2, p)
        q = [0] * (max(len(r0) - len(r1), -1) + 1)
        r = r0[:]
        while len(r) >= len(r1):
            shift = len(r) - len(r1)
            factor = (r[-1] * lead_inv) % p
            q[shift] = factor
            for i, c in enumerate(r1):
                r[shift + i] = (r[shift + i] - factor * c) % p
            _vec_trim(r)
        r0, r1 = r1, r
        s0, s1 = s1, _vec_trim([(a - b) % p for a, b in
                                itertools.zip_longest(s0, _vec_mul(q, s1, p), fillvalue=0)])
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible (modulus not irreducible?)")
    scale = pow(r0[0], p - 2, p)
    return _vec_trim([(c * scale) % p for c in _vec_mod(s0, m, p)])


def _is_irreducible(m: list[int], p: int) -> bool:
    """Brute-force irreducibility of monic m: root check, then trial division."""
    n = len(m) - 1
    if n == 1:
        return True
    if any(_vec_eval(m, x, p) == 0 for x in range(p)):
        return False
    if n <= 3:
        return True  # a reducible cubic or quadratic has a linear factor
    for deg in range(2, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            cand = list(tail) + [1]
            if not _vec_mod(m, cand, p):
                return False
    return True


def _smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First irreducible monic degree-n polynomial, coefficient tuples ordered
    low-degree-first."""
    if n == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=n):
        cand = list(tail) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible polynomial of degree {n} over F_{p}")


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

    Construct through :func:`prime_field`, :func:`extension_field`, or
    :func:`parse_field`; the constructor itself validates everything and is
    safe to call directly.  Immutable after construction.
    """

    __slots__ = ("p", "n", "modulus", "_subfields")

    def __init__(self, p: int, n: int = 1, modulus=None):
        _check_field_size(p, n)
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrimeError(f"characteristic {p!r} is not prime")
        if not isinstance(n, int) or n < 1:
            raise ParseError(f"extension degree must be a positive integer, got {n!r}")
        if n == 1:
            modulus = None
        else:   # the modulus is read only once p is known to be a valid prime
            modulus = (_smallest_irreducible(p, n) if modulus is None
                       else _modulus_coeffs(modulus, p))
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise NotIrreducibleError(
                    f"modulus must be monic of degree {n}, got degree {len(modulus) - 1}")
            if not _is_irreducible(list(modulus), p):
                raise NotIrreducibleError(
                    f"{_render_terms(modulus, 't')} is reducible over F_{p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_subfields", {})

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

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
        return FieldElem(self, (0,) * self.n)

    def one(self) -> FieldElem:
        return FieldElem(self, (1,) + (0,) * (self.n - 1))

    def element(self, value) -> FieldElem:
        """Build an element from an integer (constant embed), coefficient
        sequence, or an existing element of this field."""
        if isinstance(value, FieldElem):
            if value.field != self:
                raise FieldMismatchError(f"element of {value.field} used in {self}")
            return value
        if isinstance(value, int):
            return FieldElem(self, (value % self.p,) + (0,) * (self.n - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.n:
            raise ParseError(f"need {self.n} coefficients, got {len(coeffs)}")
        return FieldElem(self, coeffs)

    def from_index(self, i: int) -> FieldElem:
        """Element number i in the canonical enumeration (base-p digits,
        coeffs[0] least significant)."""
        if not 0 <= i < self.order:
            raise ParseError(f"index {i} out of range for {self}")
        coeffs = []
        for _ in range(self.n):
            coeffs.append(i % self.p)
            i //= self.p
        return FieldElem(self, tuple(coeffs))

    def parse_element(self, text: str) -> FieldElem:
        terms = _parse_terms(text, "t", int)
        coeffs = [0] * self.n
        for exp, c in terms.items():
            if exp >= self.n:
                raise ParseError(
                    f"{text!r}: exponent {exp} outside the power basis of {self}")
            coeffs[exp] = (coeffs[exp] + c) % self.p
        return FieldElem(self, tuple(coeffs))

    # -- enumeration and subfields -------------------------------------------

    def elements(self) -> tuple[FieldElem, ...]:
        """All p^n elements in canonical order: ``subfield(n)``, cached."""
        return self.subfield(self.n)

    def subfield(self, m: int) -> tuple[FieldElem, ...]:
        """The unique subfield of order p^m in canonical order, cached per m:
        the fixed points of the m-fold Frobenius a -> a^(p^m), tested once per
        field.  Neither m = n (the whole field) nor m = 1 (the constants,
        the first p elements) runs the test."""
        if not isinstance(m, int) or m < 1 or self.n % m != 0:
            raise NotDivisorError(f"{m} does not divide extension degree {self.n}")
        sub = self._subfields.get(m)
        if sub is None:
            if m == self.n:
                sub = tuple(self.from_index(i) for i in range(self.order))
            elif m == 1:
                sub = self.elements()[:self.p]
            else:
                q_m = self.p ** m
                sub = tuple(a for a in self.elements() if a ** q_m == a)
            self._subfields[m] = sub
        return sub

    # -- arithmetic backends (called by FieldElem dunders) -------------------

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        if self.n == 1:
            return ((a[0] * b[0]) % self.p,)
        prod = _vec_mul(list(a), list(b), self.p)
        red = _vec_mod(prod, list(self.modulus), self.p)
        return tuple(red) + (0,) * (self.n - len(red))

    def _inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        if all(c == 0 for c in a):
            raise ZeroDivisionError(f"inverse of zero in {self}")
        if self.n == 1:
            return (pow(a[0], self.p - 2, self.p),)
        inv = _vec_inverse_mod(list(a), list(self.modulus), self.p)
        return tuple(inv) + (0,) * (self.n - len(inv))


class FieldElem:
    """An element of a :class:`Field`, stored as a reduced coefficient tuple.

    Immutable and hashable; arithmetic via the usual operators.  Mixing
    operands from different fields raises :class:`FieldMismatchError`;
    plain ints are embedded as constants.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    def _coerce(self, other) -> FieldElem:
        if isinstance(other, FieldElem):
            f = self.field
            if other.field is f or other.field == f:
                return other
            raise FieldMismatchError(f"{other.field} element used in {self.field}")
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p = self.field.p
        return FieldElem(self.field,
                         tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p = self.field.p
        return FieldElem(self.field,
                         tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElem(self.field, self.field._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        p = self.field.p
        return FieldElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __pow__(self, e: int):
        return _power(self, e, self.field.one())

    def inverse(self) -> FieldElem:
        return FieldElem(self.field, self.field._inv(self.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.field.element(other)
        return (isinstance(other, FieldElem) and self.coeffs == other.coeffs
                and self.field == other.field)

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.n, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def index(self) -> int:
        """Position in the canonical enumeration of the field."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * self.field.p + c
        return acc

    def __str__(self) -> str:
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


def _power(base, e: int, one):
    """base**e for an integer e >= 0, by square-and-multiply from ``one``."""
    if not isinstance(e, int) or e < 0:
        raise ValueError("exponent must be a non-negative integer")
    acc = one
    while e:
        if e & 1:
            acc = acc * base
        base = base * base
        e >>= 1
    return acc


# ---------------------------------------------------------------------------
# Public constructors.


def prime_field(p: int) -> Field:
    """The prime field F_p; rejects composite p."""
    return Field(p)


def extension_field(p: int, n: int, modulus=None) -> Field:
    """F_{p^n}.  With ``modulus`` omitted the lexicographically smallest monic
    irreducible of degree n is chosen (coefficient tuples compared
    low-degree-first), so construction is reproducible without tables.

    ``modulus`` may be a coefficient sequence (index = degree), a text form
    like "t^2+1", or a polynomial over F_p.
    """
    return Field(p, n, modulus)


def _modulus_coeffs(modulus, p: int) -> tuple[int, ...]:
    if isinstance(modulus, str):
        terms = _parse_terms(modulus, "t", int)
        deg = max(terms)
        vec = [0] * (deg + 1)
        for e, c in terms.items():
            vec[e] = (vec[e] + c) % p
        return tuple(vec)
    coeffs = getattr(modulus, "coeffs", modulus)
    out = []
    for c in coeffs:
        if isinstance(c, FieldElem):
            if c.field.n != 1 or c.field.p != p:
                raise FieldMismatchError("modulus coefficients must lie in the prime field")
            out.append(c.coeffs[0])
        else:
            out.append(int(c) % p)
    return tuple(out)


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
    if slash and n == 1:
        raise ParseError(f"{text!r}: modulus given for a prime field")
    return extension_field(p, n, mod_text if slash else None)


def canonical_sort(elems) -> tuple[FieldElem, ...]:
    """Sort elements by their canonical enumeration index."""
    return tuple(sorted(elems, key=lambda e: e.index()))
