import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab.errors import (
    FieldMismatchError,
    NotDivisorError,
    NotIrreducibleError,
    NotPrimeError,
    ParseError,
)
from expanderlab.field import (
    Field,
    extension_field,
    is_prime,
    parse_field,
    prime_field,
)
from expanderlab.poly import Poly


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)


def test_prime_field_rejects_composite():
    with pytest.raises(NotPrimeError):
        prime_field(6)
    with pytest.raises(NotPrimeError):
        prime_field(1)


def test_prime_field_basic_arithmetic():
    F = prime_field(5)
    two, three = F.element(2), F.element(3)
    assert two + three == F.zero()
    assert two * three == F.element(1)
    assert (two - three) == F.element(4)
    assert two.inverse() == three
    assert (two / three) * three == two
    assert str(F.element(7)) == "2"


def test_inverse_of_zero_raises():
    F = prime_field(7)
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()


def test_default_moduli_are_smallest():
    # Lexicographic scan over coefficient tuples, low degree first.
    assert extension_field(3, 2).modulus == (1, 0, 1)        # t^2+1
    assert extension_field(2, 2).modulus == (1, 1, 1)        # t^2+t+1
    assert extension_field(2, 3).modulus == (1, 0, 1, 1)     # t^3+t^2+1
    assert extension_field(5, 2).modulus == (1, 1, 1)        # t^2+t+1


def test_explicit_modulus_validation():
    with pytest.raises(NotIrreducibleError):
        extension_field(3, 2, "t^2+2")    # (t-1)(t+1) over F_3
    with pytest.raises(NotIrreducibleError):
        extension_field(3, 2, "t^3+1")    # wrong degree
    F = extension_field(3, 2, "t^2+t+2")
    assert F.modulus == (2, 1, 1)


def test_modulus_forms_agree():
    # A coefficient sequence, a polynomial over F_p and the text form.
    F3 = prime_field(3)
    forms = [(1, 0, 1), Poly(F3, (1, 0, 1)), "t^2+1"]
    fields = [extension_field(3, 2, m) for m in forms]
    assert fields[0] == fields[1] == fields[2]
    assert fields[1].modulus == (1, 0, 1)
    for other in (prime_field(5), extension_field(3, 2)):
        with pytest.raises(FieldMismatchError, match="prime field"):
            extension_field(3, 2, Poly(other, (1, 0, 1)))


def test_extension_arithmetic_f9():
    F = extension_field(3, 2)             # t^2 = -1 = 2
    t = F.parse_element("t")
    assert t * t == F.element(2)
    assert (t + 1) * (t + 2) == t * t + 3 * t + 2 == F.element(1)
    assert t.inverse() * t == F.one()
    assert str(t.inverse()) == "2*t"


def test_element_parse_and_render_roundtrip():
    F = extension_field(3, 2)
    for text in ("0", "1", "2", "t", "t+1", "t+2", "2*t", "2*t+1", "2*t+2"):
        assert str(F.parse_element(text)) == text
    assert F.parse_element("2t+1") == F.parse_element("2*t+1")
    assert F.parse_element("-t") == -F.parse_element("t")
    with pytest.raises(ParseError):
        F.parse_element("t^2")
    with pytest.raises(ParseError):
        F.parse_element("")


def test_enumeration_order_and_index():
    F = extension_field(2, 2)
    assert [str(a) for a in F.elements()] == ["0", "1", "t", "t+1"]
    for i, a in enumerate(F.elements()):
        assert a.index() == i
        assert F.from_index(i) == a


def test_parse_field_forms():
    assert parse_field("5") == prime_field(5)
    assert parse_field("3^2") == extension_field(3, 2)
    assert parse_field("3^2/t^2+1") == extension_field(3, 2, "t^2+1")
    assert parse_field("3^2/t^2+t+2") != parse_field("3^2/t^2+1")
    with pytest.raises(ParseError):
        parse_field("5/t^2+1")
    with pytest.raises(ParseError):
        parse_field("abc")
    with pytest.raises(NotPrimeError):
        parse_field("4^2")


def test_field_str_roundtrip():
    for text in ("7", "3^2/t^2+1", "2^3/t^3+t+1"):
        F = parse_field(text)
        assert parse_field(str(F)) == F


def test_subfield_f9():
    F = extension_field(3, 2)
    sub = F.subfield(1)
    assert [str(a) for a in sub] == ["0", "1", "2"]
    assert F.subfield(2) == F.elements()
    with pytest.raises(NotDivisorError):
        F.subfield(3)


def test_subfield_f16_tower():
    F = extension_field(2, 4)
    # Cached per m; the whole field is subfield(n).
    assert F.elements() is F.subfield(F.n)
    assert F.subfield(1) is F.subfield(1)
    assert len(F.subfield(1)) == 2
    sub4 = F.subfield(2)
    assert len(sub4) == 4
    # A subfield is closed under the field operations.
    members = set(sub4)
    for a in sub4:
        for b in sub4:
            assert a + b in members and a * b in members


def test_cross_field_mixing_raises():
    a = prime_field(5).element(2)
    b = prime_field(7).element(2)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        prime_field(5).element(b)


def test_int_interop():
    F = prime_field(11)
    a = F.element(4)
    assert 1 + a == F.element(5)
    assert 2 * a == F.element(8)
    assert 1 - a == F.element(8)
    assert a ** 0 == F.one()


def test_fermat_inverse_matches_euclid_route():
    # Prime fields invert by Fermat; extensions by extended Euclid.  The two
    # must agree on the prime subfield of an extension.
    P = prime_field(13)
    E = extension_field(13, 2)
    for v in range(1, 13):
        lifted = E.element(v).inverse()
        assert lifted == E.element(P.element(v).inverse().coeffs[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_f9_field_axioms(i, j, k):
    F = extension_field(3, 2)
    a, b, c = F.from_index(i), F.from_index(j), F.from_index(k)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == F.one()


def test_random_inverse_sweep():
    rng = random.Random(20260816)
    for F in (prime_field(31), extension_field(2, 3), extension_field(5, 2)):
        for _ in range(50):
            a = F.from_index(rng.randrange(1, F.order))
            assert a * a.inverse() == F.one()
            assert (a ** (F.order - 1)) == F.one()


def test_elements_cache_is_stable():
    F = extension_field(3, 2)
    assert F.elements() is F.elements()
    assert len(F.elements()) == 9


# -- arithmetic on canonical indices ---------------------------------------------


def _index_ops_agree(field, pairs):
    """The index ops on these element pairs, and inv on every first element
    that is nonzero, equal FieldElem arithmetic."""
    add, sub, mul, inv = field.index_ops(0)
    for x, y in pairs:
        i, j = x.index(), y.index()
        assert (add(i, j), sub(i, j), mul(i, j)) == (
            (x + y).index(), (x - y).index(), (x * y).index()), (str(x), str(y))
        if i:
            assert inv(i) == x.inverse().index()
    with pytest.raises(ZeroDivisionError):
        inv(0)


@pytest.mark.parametrize("text", ["3^2", "2^4", "5^2", "2^6", "3^3", "7^2"])
def test_index_ops_match_elements_on_all_pairs(text):
    field = parse_field(text)
    pairs = list(itertools.product(field.elements(), repeat=2))
    _index_ops_agree(field, pairs)          # coefficient vectors
    assert field._index_state[1] is None
    field.index_ops(field.order)            # n * q coefficient operations asked
    assert field._index_state[1] is not None
    _index_ops_agree(field, pairs)          # exp, log and Zech tables


@pytest.mark.parametrize("text", ["31^2", "2^8", "3^5"])
def test_index_ops_match_elements_on_random_pairs(text):
    field = parse_field(text)
    rng = random.Random(field.order)
    pairs = [(field.from_index(rng.randrange(field.order)),
              field.from_index(rng.randrange(field.order))) for _ in range(300)]
    pairs += [(field.zero(), y) for _, y in pairs[:5]] + [(x, x) for x, _ in pairs[:5]]
    _index_ops_agree(field, pairs)
    field.index_ops(field.order)
    _index_ops_agree(field, pairs)


@pytest.mark.parametrize("p", [2, 13, 251])
def test_prime_field_index_ops_are_arithmetic_mod_p(p):
    field = prime_field(p)
    _index_ops_agree(field, list(itertools.product(field.elements()[:20], repeat=2)))
    field.index_ops(10 * field.order)
    assert field._index_state == [0, None]  # a prime field never builds tables


def test_index_tables_are_built_once(monkeypatch):
    builds = []
    zech_ops = Field._zech_ops
    monkeypatch.setattr(Field, "_zech_ops", lambda self: builds.append(self) or zech_ops(self))
    field = parse_field("3^3")
    field.index_ops(8)                      # 24 of 27 coefficient operations
    assert builds == []
    first = field.index_ops(1)
    assert builds == [field] and field.index_ops(10**6) is first
