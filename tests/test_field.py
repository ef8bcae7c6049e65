import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab import extension as extension_module
from expanderlab.bound import is_prime
from expanderlab.cli import main
from expanderlab.errors import (
    FieldMismatchError,
    InternalInvariantError,
    InvalidParametersError,
    ParseError,
)
from expanderlab.field import Field, FieldElem, parse_field
from expanderlab.instance import check_instance
from expanderlab.poly import Poly, parse_poly
from oracles import (
    digits_index,
    frobenius_subfield,
    index_digits,
    smallest_irreducible_scan,
    vector_add,
    vector_inverse,
    vector_mul,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)


def test_prime_field_rejects_composite():
    with pytest.raises(InvalidParametersError, match="^characteristic 6 is not prime$"):
        Field(6)
    with pytest.raises(InvalidParametersError, match="^characteristic 1 is not prime$"):
        Field(1)


def test_prime_field_basic_arithmetic():
    F = Field(5)
    two, three = F.element(2), F.element(3)
    assert two + three == F.zero()
    assert two * three == F.element(1)
    assert (two - three) == F.element(4)
    assert two.inverse() == three
    assert (two / three) * three == two
    assert str(F.element(7)) == "2"


def test_inverse_of_zero_raises():
    F = Field(7)
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()


def test_default_moduli_are_smallest():
    # Lexicographic scan over coefficient tuples, low degree first.
    assert Field(3, 2).modulus == (1, 0, 1)        # t^2+1
    assert Field(2, 2).modulus == (1, 1, 1)        # t^2+t+1
    assert Field(2, 3).modulus == (1, 0, 1, 1)     # t^3+t^2+1
    assert Field(5, 2).modulus == (1, 1, 1)        # t^2+t+1


def test_explicit_modulus_validation():
    with pytest.raises(InvalidParametersError, match=r"^t\^2\+2 is reducible over F_3$"):
        Field(3, 2, "t^2+2")    # (t-1)(t+1) over F_3
    with pytest.raises(InvalidParametersError,
                       match="^modulus must be monic of degree 2, got degree 3$"):
        Field(3, 2, "t^3+1")    # wrong degree
    with pytest.raises(InvalidParametersError,
                       match="^modulus must be monic of degree 2, got degree 3$"):
        Field(3, 2, modulus=[1, 0, 1, 0])    # t^2+1 plus a term 0 mod 3: degree 3 as written
    F = Field(3, 2, "t^2+t+2")
    assert F.modulus == (2, 1, 1)


def test_a_prime_field_refuses_any_modulus():
    for p, modulus in ((3, "garbage"), (3, (0, 1)), (13, "t+1"), (13, "")):
        with pytest.raises(ParseError) as e:
            Field(p, 1, modulus)
        assert str(e.value) == f"modulus {modulus!r} given for the prime field F_{p}"


def test_modulus_forms_agree():
    # A list, a tuple and the text form; a polynomial is not a modulus.
    fields = [Field(3, 2, m) for m in ([1, 0, 1], (1, 0, 1), "t^2+1")]
    assert fields[0] == fields[1] == fields[2]
    assert fields[0].modulus == (1, 0, 1)
    for other in (Field(3), Field(5), Field(3, 2)):
        poly = Poly(other, (1, 0, 1))
        with pytest.raises(ParseError) as e:
            Field(3, 2, poly)
        assert str(e.value) == f"coefficients must be a list or tuple of ints, got {poly!r}"


# Values that are no coefficient sequence: text, bytes, a float among the
# ints, a float, a polynomial over F_3 and an element of F_81.
NOT_INT_SEQUENCES = ["12", b"\x01\x02", [1.9, 0], 2.5, Poly(Field(3), (1, 0, 1)),
                     Field(3, 4).element([1, 2, 0, 1])]


@pytest.mark.parametrize("value", NOT_INT_SEQUENCES, ids=repr)
def test_a_coefficient_sequence_is_a_list_or_tuple_of_ints(value):
    # Each entry point that reads a coefficient sequence refuses anything
    # else with the one message.  Text keeps its own reading as a modulus,
    # and an element of another field is a field mismatch as an element.
    F = Field(3, 2)
    g, h = parse_poly("x^2", F), parse_poly("x", F)
    entries = {
        "element": lambda: F.element(value),
        "modulus": lambda: Field(3, 2, modulus=value),
        "Poly": lambda: Poly(F, [value]),
        "check_instance A": lambda: check_instance(F, g, h, [value], [0]),
    }
    for entry, build in entries.items():
        if entry == "modulus" and isinstance(value, str):
            with pytest.raises(InvalidParametersError, match="got degree 0$"):
                build()     # "12" is the constant 12, 0 mod 3
        elif entry != "modulus" and isinstance(value, FieldElem):
            with pytest.raises(FieldMismatchError, match="^element of 3\\^4/"):
                build()
        else:
            with pytest.raises(ParseError) as e:
                build()
            assert str(e.value) == (
                f"coefficients must be a list or tuple of ints, got {value!r}"), entry


def test_extension_arithmetic_f9():
    F = Field(3, 2)             # t^2 = -1 = 2
    t = F.parse_element("t")
    assert t * t == F.element(2)
    assert (t + 1) * (t + 2) == t * t + 3 * t + 2 == F.element(1)
    assert t.inverse() * t == F.one()
    assert str(t.inverse()) == "2*t"


def test_element_parse_and_render_roundtrip():
    F = Field(3, 2)
    for text in ("0", "1", "2", "t", "t+1", "t+2", "2*t", "2*t+1", "2*t+2"):
        assert str(F.parse_element(text)) == text
    assert F.parse_element("2t+1") == F.parse_element("2*t+1")
    assert F.parse_element("-t") == -F.parse_element("t")
    with pytest.raises(ParseError):
        F.parse_element("t^2")
    with pytest.raises(ParseError):
        F.parse_element("")


def test_enumeration_order_and_index():
    F = Field(2, 2)
    assert [str(a) for a in F.elements()] == ["0", "1", "t", "t+1"]
    for i, a in enumerate(F.elements()):
        assert a.index() == i
        assert F.from_index(i) == a


def test_parse_field_forms():
    assert parse_field("5") == Field(5)
    assert parse_field("3^2") == Field(3, 2)
    assert parse_field("3^2/t^2+1") == Field(3, 2, "t^2+1")
    assert parse_field("3^2/t^2+t+2") != parse_field("3^2/t^2+1")
    with pytest.raises(ParseError):
        parse_field("5/t^2+1")
    with pytest.raises(ParseError):
        parse_field("abc")
    with pytest.raises(InvalidParametersError, match="^characteristic 4 is not prime$"):
        parse_field("4^2")
    for text, n in (("3^0", 0), ("2^-1", -1)):
        with pytest.raises(InvalidParametersError,
                           match=f"^extension degree must be an integer >= 1, got {n}$"):
            parse_field(text)


def test_field_str_roundtrip():
    for text in ("7", "3^2/t^2+1", "2^3/t^3+t+1"):
        F = parse_field(text)
        assert parse_field(str(F)) == F


def test_subfield_f9():
    F = Field(3, 2)
    sub = F.subfield(1)
    assert [str(a) for a in sub] == ["0", "1", "2"]
    assert F.subfield(2) == F.elements()
    with pytest.raises(InvalidParametersError, match="^3 does not divide extension degree 2$"):
        F.subfield(3)


def test_subfield_f16_tower():
    F = Field(2, 4)
    # Built on each call; the whole field is subfield(n).
    assert F.elements() == F.subfield(F.n)
    assert F.subfield(1) == F.subfield(1)
    assert len(F.subfield(1)) == 2
    sub4 = F.subfield(2)
    assert len(sub4) == 4
    # A subfield is closed under the field operations.
    members = set(sub4)
    for a in sub4:
        for b in sub4:
            assert a + b in members and a * b in members


def test_cross_field_mixing_raises():
    a = Field(5).element(2)
    b = Field(7).element(2)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        Field(5).element(b)


def test_int_interop():
    F = Field(11)
    a = F.element(4)
    assert 1 + a == F.element(5)
    assert 2 * a == F.element(8)
    assert 1 - a == F.element(8)
    assert a ** 0 == F.one()
    assert bool(a) and not F.zero()
    assert repr(a) == "FieldElem(11, 4)"
    with pytest.raises(TypeError):
        a + "1"


def test_values_are_immutable():
    F = Field(3, 2)
    for value, name in ((F, "p"), (F.one(), "_index"), (Poly(F, [1, 1]), "field")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, None)


def test_an_element_equals_only_the_ints_0_to_p_minus_1():
    # Equality agrees with the hash, the index: an int outside 0..p-1 is
    # not reduced before comparing.
    F13 = Field(13)
    three = F13.element(3)
    assert three == 3 and 3 in {three} and three in {3}
    for c in (16, -10, 13):
        assert three != c and c not in {three}
    F9 = parse_field("3^2")
    one, t_plus_1 = F9.element(1), F9.from_index(4)
    assert str(t_plus_1) == "t+1"
    assert one == 1 and 1 in {one}
    assert one != 4 and t_plus_1 != 4 and 4 not in {one, t_plus_1}


def test_out_of_range_index_and_coefficient_count_raise():
    F = parse_field("3^2")
    with pytest.raises(ParseError, match="index 9 out of range"):
        F.from_index(F.order)
    with pytest.raises(ParseError, match="need 2 coefficients, got 3"):
        F.element([1, 0, 0])


def test_a_default_modulus_is_tested_for_irreducibility_once(monkeypatch):
    tested = []
    is_irreducible = extension_module._is_irreducible
    monkeypatch.setattr(extension_module, "_is_irreducible",
                        lambda m, p: tested.append(list(m)) or is_irreducible(m, p))
    for text in ("3^2", "2^4", "5^3", "2^16"):
        tested.clear()
        F = parse_field(text)
        assert tested.count(list(F.modulus)) == 1, text
    tested.clear()
    parse_field("3^2/t^2+1")
    assert tested == [[1, 0, 1]]


def test_no_irreducible_modulus_is_an_internal_error(monkeypatch, capsys):
    # Unreachable with a correct irreducibility test; main reports it as a bug
    # (exit 1), not with a traceback.
    monkeypatch.setattr(extension_module, "_is_irreducible", lambda m, p: False)
    with pytest.raises(InternalInvariantError,
                       match="no irreducible polynomial of degree 2 over F_3"):
        parse_field("3^2")
    assert main(["image", "--field", "3^2", "--g", "x^2", "--h", "x",
                 "--A", "1", "--B", "0"]) == 1
    assert capsys.readouterr() == (
        "", "internal error: no irreducible polynomial of degree 2 over F_3\n")


def _oracle_inverse(x):
    """x^-1 by the extended-Euclid oracle on coefficient vectors."""
    F = x.field
    inv = vector_inverse(list(x.coeffs), list(F.modulus or (0, 1)), F.p)
    return F.element(inv + [0] * (F.n - len(inv)))


def test_fermat_inverse_matches_euclid_route():
    # Prime fields invert by pow(a, -1, p); extensions by their log tables.
    # The two agree on the prime subfield of an extension, and with the
    # extended-Euclid oracle.
    P = Field(13)
    E = Field(13, 2)
    for v in range(1, 13):
        lifted = E.element(v).inverse()
        assert lifted == E.element(P.element(v).inverse().coeffs[0])
        assert lifted == _oracle_inverse(E.element(v))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_f9_field_axioms(i, j, k):
    F = Field(3, 2)
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
    for F in (Field(31), Field(2, 3), Field(5, 2)):
        for _ in range(50):
            a = F.from_index(rng.randrange(1, F.order))
            assert a * a.inverse() == F.one()
            assert (a ** (F.order - 1)) == F.one()


def test_field_keeps_no_element_tuples():
    F = Field(3, 2)
    assert F.elements() == F.elements()
    assert len(F.elements()) == 9
    assert Field.__slots__ == ("p", "n", "modulus", "_tables")


# -- arithmetic on canonical indices ---------------------------------------------


def _index_ops_agree(field, pairs):
    """On these index pairs, the index ops and the FieldElem operators both
    equal the coefficient-vector oracles: digit-wise add and subtract,
    multiply reduced by the modulus, and the extended-Euclid inverse of every
    nonzero first operand."""
    p, n, modulus = field.p, field.n, list(field.modulus or (0, 1))
    add, sub, mul, inv = field.index_ops()
    for i, j in pairs:
        u, v = index_digits(i, p, n), index_digits(j, p, n)
        want = [digits_index(w, p) for w in (
            vector_add(u, v, p), vector_add(u, v, p, -1), vector_mul(u, v, modulus, p))]
        x, y = field.from_index(i), field.from_index(j)
        assert [add(i, j), sub(i, j), mul(i, j)] == want, (str(x), str(y))
        assert [(x + y).index(), (x - y).index(), (x * y).index()] == want, (str(x), str(y))
        assert (-y).index() == digits_index(vector_add([0] * n, v, p, -1), p)
        if i:
            u_inv = vector_inverse(u, modulus, p)
            assert inv(i) == x.inverse().index() == digits_index(u_inv, p), str(x)
            assert (y / x).index() == digits_index(vector_mul(v, u_inv, modulus, p), p)
    with pytest.raises(ZeroDivisionError):
        inv(0)
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()


@pytest.mark.parametrize("text", ["3^2", "2^4", "5^2", "2^6", "3^3", "7^2"])
def test_index_ops_match_elements_on_all_pairs(text):
    field = parse_field(text)
    _index_ops_agree(field, itertools.product(range(field.order), repeat=2))


@pytest.mark.parametrize("text", ["31^2", "2^8", "3^5", "2^16"])
def test_index_ops_match_elements_on_random_pairs(text):
    field = parse_field(text)
    rng = random.Random(field.order)
    pairs = [(rng.randrange(field.order), rng.randrange(field.order)) for _ in range(300)]
    pairs += [(0, j) for _, j in pairs[:5]] + [(i, i) for i, _ in pairs[:5]]
    _index_ops_agree(field, pairs)


def _count_table_builds(monkeypatch):
    builds = []
    build = extension_module._build_tables
    monkeypatch.setattr(extension_module, "_build_tables",
                        lambda field: builds.append(field) or build(field))
    return builds


@pytest.mark.parametrize("p", [2, 13, 251])
def test_prime_field_index_ops_are_arithmetic_mod_p(monkeypatch, p):
    builds = _count_table_builds(monkeypatch)
    field = Field(p)
    _index_ops_agree(field, itertools.product(range(min(p, 20)), repeat=2))
    assert field.subfield(1) == field.elements()
    assert builds == []   # a prime field never builds


def test_table_build_refuses_a_repeated_exp_entry(monkeypatch):
    # With no prime factor of q - 1 tested, the search for alpha stops at
    # t, of order 4 in F_9 = F_3[t]/(t^2+1): the exp walk meets 1 again.
    field = parse_field("3^2")
    assert field.modulus == (1, 0, 1)
    monkeypatch.setattr(extension_module, "is_prime", lambda r: False)
    with pytest.raises(InternalInvariantError, match="repeats at alpha"):
        field.index_ops()


@pytest.mark.parametrize("text", ["13", "3^2"])
def test_hash_agrees_with_equality(text):
    field = parse_field(text)
    for c in range(field.p):
        x = field.element(c)
        assert x == c and hash(x) == hash(c) and c in {x}
    assert set(field.elements()) == set(map(parse_field(text).from_index, range(field.order)))


def test_index_tables_are_built_once(monkeypatch):
    builds = _count_table_builds(monkeypatch)
    field = parse_field("3^3")
    field.elements()
    assert builds == []
    first = field.index_ops()               # the first call builds
    assert builds == [field]
    field.subfield(1)
    field.from_index(5).inverse()
    assert field.index_ops() is first and builds == [field]


@pytest.mark.parametrize("text", ["2^4", "2^6", "3^4", "5^4", "2^8"])
def test_subfield_matches_the_frobenius_fixed_points(text):
    field = parse_field(text)
    for m in range(1, field.n + 1):
        if field.n % m == 0:
            assert field.subfield(m) == frobenius_subfield(field, m), m


def test_default_modulus_matches_the_plain_scan():
    for p, n in [(p, n) for p in (2, 3, 5, 7, 11, 31) for n in range(2, 9)
                 if p ** n <= 3000] + [(2, 16), (3, 10)]:
        assert parse_field(f"{p}^{n}").modulus == smallest_irreducible_scan(p, n), (p, n)


def test_setup_steps_build_no_tables():
    # What a run does before its first pair: import, parse the field, list
    # its elements, parse the polynomials.  None of it builds the tables.
    import os
    import subprocess
    import sys

    import expanderlab
    src = os.path.dirname(os.path.dirname(expanderlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "from expanderlab import extension\n"
        "def refuse(field):\n"
        "    raise AssertionError(f'tables built for {field}')\n"
        "extension._build_tables = refuse\n"
        "import expanderlab.cli\n"
        "from expanderlab import parse_field, parse_poly\n"
        "for text in ('31^2', '2^8', '3^2/t^2+1'):\n"
        "    field = parse_field(text)\n"
        "    field.elements()\n"
        "    parse_poly('x^2', field), parse_poly('t*x+1', field)\n"
        "    x = field.parse_element('t+1')\n"
        "    y = field.from_index(x.index())\n"
        "    assert str(y) == 't+1' and x == y and hash(x) == hash(y) and x != 1\n"
        "    assert field._tables is None\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


COPIERS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda obj: pickle.loads(pickle.dumps(obj))}


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS)
@pytest.mark.parametrize("text", ["13", "3^2", "2^4/t^4+t+1"])
def test_fields_and_elements_copy_and_pickle(text, copier):
    F = parse_field(text)
    x, y = F.from_index(F.order - 2), F.from_index(F.order // 3)
    F.index_ops()     # the original's tables are built; a copy's are not
    G, u, v = copier(F), copier(x), copier(y)
    assert (G, u, v) == (F, x, y) and str(G) == str(F)
    assert G._tables is None or G.n == 1     # rebuilt on first use
    assert [(u * v).index(), (u + v).index(), (u - v).index(), u.inverse().index()] == [
        (x * y).index(), (x + y).index(), (x - y).index(), x.inverse().index()]
    assert [w.index() for w in G.subfield(1)] == list(range(F.p))
    assert G._tables[0] == F._tables[0]     # an extension's exp table, rebuilt
