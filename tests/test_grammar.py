"""The one term grammar behind field elements, moduli and polynomials, and
the routines they share: the term renderer and the power."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab.errors import InvalidParametersError, ParseError, ValidationError
from expanderlab.field import parse_field
from expanderlab.poly import Poly, parse_poly

FIELDS = [parse_field(text) for text in ("5", "3^2", "2^4")]
ALPHABET = "0123456789tx^*+-() −/"
F9, F13 = FIELDS[1], parse_field("13")
T, T21 = F9.element([0, 1]), F9.element([1, 2])     # t and 2*t+1


@pytest.mark.parametrize("value, text", [
    (Poly(F9), "0"),
    (Poly(F9, [0, 1]), "x"),
    (Poly(F9, [0, 2]), "2*x"),
    (Poly(F9, [F9.element([1, 1]), 0, 1]), "x^2+(t+1)"),
    (Poly(F9, [1, T, T21]), "(2*t+1)*x^2+t*x+1"),
    (F9.element(0), "0"),
    (F9.element(1), "1"),
    (T, "t"),
    (T21, "2*t+1"),
    (F13.element(0), "0"),
    (F13.element(12), "12"),
    (F9, "3^2/t^2+1"),
    (parse_field("2^4"), "2^4/t^4+t^3+1"),
    (parse_field("3^2/t^2+4*t+5"), "3^2/t^2+t+2"),
])
def test_rendered_text_is_exact(value, text):
    assert str(value) == text


def test_powers_share_one_square_and_multiply():
    x1 = Poly(F9, [1, 1])
    assert x1 ** 5 == x1 * x1 * x1 * x1 * x1 and x1 ** 0 == Poly(F9, [1])
    assert T21 ** 5 == T21 * T21 * T21 * T21 * T21 and T21 ** 0 == F9.one()
    # A negative or non-integer exponent is bad input, which the CLI catches
    # as a ValidationError; it is still a ValueError.
    assert issubclass(ValidationError, ValueError)
    for value in (T21, x1, F13.element(3), parse_poly("x+1", F13)):
        for e, error in ((-1, InvalidParametersError), (-2, InvalidParametersError),
                         (1.5, ParseError)):
            with pytest.raises(error, match=f"^exponent must be an integer >= 0, got {e}$"):
                value ** e


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789^/t+", max_size=12))
@example("2^40")
@example("101^4")
@example("2^99999999999")
@example("1000000000000000003")
@example("0^0/0")
def test_field_heads_raise_only_validation_errors(text):
    try:
        parse_field(text)
    except ValidationError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), st.text(ALPHABET, max_size=14))
@example(FIELDS[1], "+")
def test_malformed_text_raises_only_validation_errors(field, text):
    parses = [lambda: field.parse_element(text), lambda: parse_poly(text, field)]
    if field.n > 1:
        parses.append(lambda: parse_field(f"{field.p}^{field.n}/{text}"))
    for parse in parses:
        try:
            parse()
        except ValidationError:
            pass


def _spell_term(rnd, c: int, e: int, var: str, first: bool) -> str:
    """One term c*VAR^e in a randomly chosen, valid, non-canonical spelling."""
    sign = rnd.choice("-−") if c < 0 else ("+" if not first or rnd.random() < 0.3 else "")
    mag = abs(c)
    if e == 0:
        body = str(mag) if rnd.random() < 0.8 else f"{mag}*{var}^0"
    else:
        power = var if e == 1 and rnd.random() < 0.7 else f"{var}^{e}"
        if mag == 1 and rnd.random() < 0.5:
            body = power
        else:
            body = f"{mag}{rnd.choice(['*', '', ' * '])}{power}"
    return sign + rnd.choice(["", " "]) + body


def _spell(rnd, terms, var: str) -> str:
    return rnd.choice(["", " "]).join(
        _spell_term(rnd, c, e, var, i == 0) for i, (c, e) in enumerate(terms))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.randoms(use_true_random=False))
def test_element_spellings_parse_to_the_same_value(field, rnd):
    # Repeated exponents sum, so the expected value is the sum of the terms.
    terms = [(rnd.randint(-2 * field.p, 2 * field.p), rnd.randrange(field.n))
             for _ in range(rnd.randint(1, 5))]
    want = [0] * field.n
    for c, e in terms:
        want[e] += c
    text = _spell(rnd, terms, "t")
    assert field.parse_element(text) == field.element(want), text


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.randoms(use_true_random=False))
def test_modulus_spellings_parse_to_the_same_field(field, rnd):
    if field.n == 1:
        return
    monic = list(field.modulus)
    terms = []
    for e, c in enumerate(monic):
        # Split each coefficient into two summands that add up to it mod p.
        part = rnd.randint(-field.p, field.p)
        terms += [(part, e), (c - part, e)]
    rnd.shuffle(terms)
    text = _spell(rnd, terms, "t")
    assert parse_field(f"{field.p}^{field.n}/{text}") == field, text


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.randoms(use_true_random=False))
def test_polynomial_spellings_parse_to_the_same_value(field, rnd):
    want = Poly(field)
    parts = []
    for i in range(rnd.randint(1, 5)):
        coeff = [rnd.randint(-2 * field.p, 2 * field.p) for _ in range(field.n)]
        e = rnd.randrange(5)
        want = want + Poly(field, [0] * e + [field.element(coeff)])
        if rnd.random() < 0.5:   # "-(c')" with c' the spelled negation of c
            sign, coeff = "-", [-v for v in coeff]
        else:
            sign = "+" if i else rnd.choice(["", "+"])
        c_text = _spell(rnd, [(v, j) for j, v in enumerate(coeff) if v], "t") or "0"
        power = "" if e == 0 else rnd.choice(["x", "x^1"]) if e == 1 else f"x^{e}"
        star = rnd.choice(["*", ""]) if power else ""
        parts.append(f"{sign}({c_text}){star}{power}")
    text = rnd.choice(["", " "]).join(parts)
    assert parse_poly(text, field) == want, text
