import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab.bound import value_rows
from expanderlab.errors import FieldMismatchError, InvalidParametersError, ParseError
from expanderlab.field import Field, FieldElem, parse_field
from expanderlab.poly import NEG_INF, Poly, parse_poly

F5 = Field(5)
F9 = Field(3, 2)


def test_normalization_strips_trailing_zeros():
    f = Poly(F5, (1, 2, 0, 0))
    assert f.degree() == 1
    assert f.coeffs == (F5.element(1), F5.element(2))


@pytest.mark.parametrize("coeffs", [{5: 1}, b"\x01\x02", range(3), iter([1, 2]),
                                    map(int, "12"), "12"],
                         ids=["dict", "bytes", "range", "iterator", "map", "str"])
def test_coefficients_are_a_list_or_tuple(coeffs):
    # Any other iterable was read as the coefficients: a dict's keys, bytes'
    # ints, a range's ints.  Now each is refused by name, as Field.element does.
    with pytest.raises(ParseError) as e:
        Poly(F5, coeffs)
    assert str(e.value) == f"polynomial coefficients must be a list or tuple, got {coeffs!r}"


def test_zero_polynomial_degree():
    z = Poly(F5)
    assert z.is_zero()
    assert z.degree() == NEG_INF
    assert z.degree() < 0 < Poly(F5, (0, 1)).degree()
    with pytest.raises(InvalidParametersError,
                       match="^zero polynomial has no leading coefficient$"):
        z.leading_coefficient()


def test_evaluation_horner():
    f = Poly(F5, [1, 0, 3])           # 3x^2 + 1
    assert f(0) == F5.element(1)
    assert f(1) == F5.element(4)
    assert f(2) == F5.element(3)            # 12+1 = 13 = 3 mod 5


def test_arithmetic_matches_pointwise():
    rng = random.Random(7)
    for _ in range(40):
        f = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
        g = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
        for x in F5.elements():
            assert (f + g)(x) == f(x) + g(x)
            assert (f - g)(x) == f(x) - g(x)
            assert (f * g)(x) == f(x) * g(x)
            assert (f ** 3)(x) == f(x) ** 3


def test_degree_of_product():
    f = Poly(F5, [0, 1, 2])
    g = Poly(F5, [3, 4])
    assert (f * g).degree() == 3
    assert (f * Poly(F5)).degree() == NEG_INF


def test_operands_from_elsewhere_are_refused():
    g = parse_poly("x^2", F5)
    with pytest.raises(FieldMismatchError):
        g + parse_poly("x^2", Field(7))
    for foreign in (lambda: g + "x", lambda: g - "x", lambda: "x" - g, lambda: g * "x"):
        with pytest.raises(TypeError):
            foreign()


def test_int_minus_poly():
    f = parse_poly("x+2", F5)
    assert 1 - f == parse_poly("4*x+4", F5)
    assert 2 - f == parse_poly("-x", F5)


def test_call_wraps_at_index():
    t = F9.parse_element("t")
    g = parse_poly("(t+1)*x^2+t", F9)
    for i in range(F9.order):
        x = F9.from_index(i)
        assert g(x) == (t + 1) * x * x + t
        assert g(x).index() == g.at_index(i)
    assert g(2) == g(F9.element(2))


def test_evaluation_builds_no_element(monkeypatch):
    # Coefficients are stored as indices: evaluation never asks an element
    # for its index.
    g, h = parse_poly("(t+1)*x^2+t", F9), parse_poly("2*x+t", F9)
    every = range(F9.order)
    want = [g.at_index(i) for i in every], value_rows(g, h, every, every)

    def refuse(self):
        raise AssertionError("FieldElem.index called")

    monkeypatch.setattr(FieldElem, "index", refuse)
    assert ([g.at_index(i) for i in every], value_rows(g, h, every, every)) == want


def test_roots_exhaustive():
    f = Poly(F5, [0, 4, 1])            # x^2 + 4x = x(x-1)
    assert [str(r) for r in f.roots()] == ["0", "1"]
    assert Poly(F5, [1]).roots() == ()
    t = F9.parse_element("t")
    g = parse_poly("x^2+1", F9)             # roots are t and 2t in F_9
    assert set(g.roots()) == {t, t + t}


def test_parse_prime_field():
    f = parse_poly("3*x^3+1", F5)
    assert f.coeffs == (F5.element(1), F5.zero(), F5.zero(), F5.element(3))
    assert parse_poly("x^2+x", F5) == Poly(F5, [0, 1, 1])
    assert parse_poly("x^2 - x", F5) == Poly(F5, [0, 4, 1])
    assert parse_poly("-x", F5) == Poly(F5, [0, 4])
    assert parse_poly("2x^2+3", F5) == parse_poly("2*x^2+3", F5)
    assert parse_poly("7", F5) == Poly(F5, (2,))


def test_parse_extension_coefficients():
    f = parse_poly("(2*t+1)*x^2+t*x+1", F9)
    assert f.coefficient(2) == F9.parse_element("2*t+1")
    assert f.coefficient(1) == F9.parse_element("t")
    assert f.coefficient(0) == F9.one()


def test_parse_rejects_garbage():
    for bad in ("", "x^-1", "x^", "x+*", "((x)", "x**2"):
        with pytest.raises(ParseError):
            parse_poly(bad, F5)


def test_render_parse_roundtrip():
    rng = random.Random(11)
    for field in (F5, F9):
        for _ in range(60):
            coeffs = [field.from_index(rng.randrange(field.order))
                      for _ in range(rng.randrange(1, 6))]
            f = Poly(field, coeffs)
            if f.is_zero():
                assert str(f) == "0"
                continue
            assert parse_poly(str(f), field) == f


def test_equal_polynomials_hash_alike_and_print_their_field():
    f, g = parse_poly("(t+1)*x+2", F9), Poly(F9, [2, F9.parse_element("t+1")])
    assert f == g and hash(f) == hash(g) and len({f, g, f + 1}) == 2
    assert repr(f) == "Poly(3^2/t^2+1, (t+1)*x+2)"


def test_repeated_sum_collects_terms():
    assert parse_poly("x+x+x+x+x", F5).is_zero()
    assert parse_poly("x^2+2*x^2", F5) == Poly(F5, [0, 0, 3])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=0, max_size=5),
       st.lists(st.integers(0, 4), min_size=0, max_size=5))
def test_ring_axioms_f5(u, v):
    f, g = Poly(F5, u), Poly(F5, v)
    assert f + g == g + f
    assert f * g == g * f
    assert f - f == Poly(F5)
    assert f * (g + g) == f * g + f * g


def test_power_zero_is_one():
    f = Poly(F5, [2, 3])
    assert f ** 0 == Poly(F5, (1,))
    assert Poly(F5) ** 0 == Poly(F5, (1,))


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["copy", "deepcopy", "pickle"])
def test_polys_copy_and_pickle(copier):
    F16 = parse_field("2^4/t^4+t+1")
    f = parse_poly("t*x^3+x+t^3", F16)
    g = copier(f)
    assert g == f and str(g) == str(f) and g.field == F16
    assert [g.at_index(i) for i in range(16)] == [f.at_index(i) for i in range(16)]
    assert g * g == f * f
