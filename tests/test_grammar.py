"""The one term grammar behind field elements, moduli and polynomials."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab.errors import ValidationError
from expanderlab.field import parse_field
from expanderlab.poly import Poly, parse_poly

FIELDS = [parse_field(text) for text in ("5", "3^2", "2^4")]
ALPHABET = "0123456789tx^*+-() −/"


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
