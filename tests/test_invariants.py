"""Symmetries of the image size |f(A, B)|, f(x, y) = g(x) + y*h(x).

Each transform maps (g, h) to a pair (g', h') of the same degrees, and
maps the instances (A, B) of one pair one to one onto those of the other
with the same image size; r is any field element, s a nonzero one (the
tests draw r != 0 and s != 0, 1, so that no transform is the identity):

* B-translation: (g + r*h)(x) + y*h(x) = f(x, y + r), so B under
  (g + r*h, h) has the image of B + r under (g, h);
* B-scaling: g(x) + y*(s*h)(x) = f(x, s*y), the image of s*B;
* value scaling: (s*g)(x) + y*(s*h)(x) = s*f(x, y), s times the image;
* affine substitution: x -> s*x + r, A under (g o sigma, h o sigma) has the
  image of sigma(A) under (g, h), and sigma maps the roots of h o sigma
  onto those of h.

So an exhaustive search, which takes every A avoiding the roots of h and
every B of each size, finds the same image sizes in each (a, b) cell for
both pairs; and the image of one instance has the size of its transform's.
Two more keep g and h and move the sets, with lam any nonzero element:

* Frobenius, for g and h over F_p: f(x^p, y^p) = f(x, y)^p, so the image
  of (A^p, B^p) is the p-th power of the image of (A, B);
* monomial scaling, for g = c*x^d and h = c'*x^e:
  f(lam*x, lam^(d-e)*y) = lam^d * f(x, y).

Each keeps a valid instance valid, and its certificate predicts
binom(k, b-1) * M'^(k-b+1) from the leading coefficient M' of the new g:
M for the set transforms and B-translation and B-scaling, s*M for value
scaling and s^d*M for affine substitution.
"""

import collections

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expanderlab.bound import image
from expanderlab.certificate import binomial_in_field, build_certificate
from expanderlab.explore import search_extremal
from expanderlab.field import canonical_sort, parse_field
from expanderlab.instance import ExpanderInstance, check_instance
from expanderlab.poly import Poly

FIELDS = {text: parse_field(text) for text in ("13", "3^2", "2^4", "999983", "2^16")}


def _compose(p, s, r):
    """p(s*x + r)."""
    lin = Poly(p.field, (r, s))
    return sum((lin ** i * c for i, c in enumerate(p.coeffs)), Poly(p.field))


# name: ((g, h, r, s) -> (g', h'), (A, B, r, s) -> the instance of (g, h)
# whose image has the size of (A, B)'s under (g', h'), (M, d, s) -> the
# leading coefficient of g').
TRANSFORMS = {
    "B-translation": (lambda g, h, r, s: (g + h * r, h),
                      lambda A, B, r, s: (A, [y + r for y in B]),
                      lambda M, d, s: M),
    "B-scaling": (lambda g, h, r, s: (g, h * s),
                  lambda A, B, r, s: (A, [y * s for y in B]),
                  lambda M, d, s: M),
    "value scaling": (lambda g, h, r, s: (g * s, h * s),
                      lambda A, B, r, s: (A, B),
                      lambda M, d, s: s * M),
    "affine substitution": (lambda g, h, r, s: (_compose(g, s, r), _compose(h, s, r)),
                            lambda A, B, r, s: ([x * s + r for x in A], B),
                            lambda M, d, s: s ** d * M),
}


@st.composite
def setups(draw, fields, over_prime_field=False, monomials=False):
    """(field, g, h, r, s): deg g in 1..3, h nonzero of lower degree, r != 0
    and s != 0, 1 (index 1 is the element 1).  The coefficients of g and h
    are constants (the first p indices) if ``over_prime_field``, and g and h
    are c*x^d and c'*x^e if ``monomials``."""
    field = FIELDS[draw(st.sampled_from(fields))]
    top = field.p if over_prime_field else field.order
    elem = st.just(0) if monomials else st.integers(0, top - 1)
    nonzero = st.integers(1, top - 1)

    def poly(degree):
        return Poly(field, [*map(field.from_index, [
            *draw(st.lists(elem, min_size=degree, max_size=degree)), draw(nonzero)])])

    d = draw(st.integers(1, 3))
    g, h = poly(d), poly(draw(st.integers(0, d - 1)))
    return (field, g, h, field.from_index(draw(st.integers(1, field.order - 1))),
            field.from_index(draw(st.integers(2, field.order - 1))))


def _sets(data, field, h=None):
    """Random distinct A and B of 1 to 6 elements, A avoiding the roots of
    ``h`` when one is given."""
    sets = st.lists(st.integers(0, field.order - 1), min_size=1, max_size=6, unique=True)
    A, B = ([field.from_index(i) for i in data.draw(sets)] for _ in "AB")
    A = [x for x in A if h is None or not h(x).is_zero()]
    assume(A)
    return A, B


def _certificate_holds(data, field, g, h, A, B, M):
    """The certificate of a random admissible k for the instance (g, h, A, B)
    holds and predicts binom(k, b-1) * M^(k-b+1)."""
    inst = check_instance(field, g, h, A, B)
    k = data.draw(st.sampled_from(inst.bound_report().admissible_k))
    C = data.draw(st.lists(st.integers(0, field.order - 1), min_size=k, max_size=k,
                           unique=True))
    cert = build_certificate(inst, map(field.from_index, C))
    b = inst.b
    assert cert.identity_holds
    assert cert.predicted == binomial_in_field(field, k, b - 1) * M ** (k - b + 1)


def _cell_histogram(field, g, h):
    """Counter of (a, b, image_size) over an exhaustive search's pairs."""
    ranked = search_extremal(field, str(g), str(h), (1, 3), (1, 2))
    return collections.Counter(ranked.rows[i][3:6] for i in ranked.ids)


@settings(max_examples=25, deadline=None)
@given(setups(("13", "3^2", "2^4")))
def test_exhaustive_search_sizes_are_invariant(setup):
    field, g, h, r, s = setup
    want = _cell_histogram(field, g, h)
    for name, (new_polys, _, _) in TRANSFORMS.items():
        g2, h2 = new_polys(g, h, r, s)
        assert (g2.degree(), h2.degree()) == (g.degree(), h.degree()), name
        assert _cell_histogram(field, g2, h2) == want, name


@settings(max_examples=60, deadline=None)
@given(setups(("999983", "2^16")), st.sampled_from(sorted(TRANSFORMS)), st.data())
def test_image_sizes_of_random_instances_are_invariant(setup, name, data):
    field, g, h, r, s = setup
    new_polys, old_sets, _ = TRANSFORMS[name]
    A, B = _sets(data, field)
    g2, h2 = new_polys(g, h, r, s)
    A1, B1 = old_sets(A, B, r, s)
    assert (len(image(ExpanderInstance(field, g2, h2, tuple(A), tuple(B))))
            == len(image(ExpanderInstance(field, g, h, tuple(A1), tuple(B1)))))


@settings(max_examples=40, deadline=None)
@given(setups(("999983", "2^16")), st.sampled_from(sorted(TRANSFORMS)), st.data())
def test_certificates_of_transformed_instances_hold(setup, name, data):
    field, g, h, r, s = setup
    new_polys, _, leading = TRANSFORMS[name]
    g2, h2 = new_polys(g, h, r, s)
    _certificate_holds(data, field, g2, h2, *_sets(data, field, h2),
                       leading(g.leading_coefficient(), g.degree(), s))


def _image(field, g, h, A, B):
    return image(ExpanderInstance(field, g, h, tuple(A), tuple(B)))


@settings(max_examples=40, deadline=None)
@given(setups(("3^2", "2^4", "2^16"), over_prime_field=True), st.data())
def test_frobenius_raises_the_image_to_the_p_th_power(setup, data):
    field, g, h, _, _ = setup
    A, B = _sets(data, field, h)
    Ap, Bp = [x ** field.p for x in A], [y ** field.p for y in B]
    assert _image(field, g, h, Ap, Bp) == canonical_sort(
        {v ** field.p for v in _image(field, g, h, A, B)})
    _certificate_holds(data, field, g, h, Ap, Bp, g.leading_coefficient())


@settings(max_examples=40, deadline=None)
@given(setups(("13", "3^2", "2^4", "999983", "2^16"), monomials=True), st.data())
def test_monomial_scaling_scales_the_image(setup, data):
    field, g, h, lam, _ = setup
    A, B = _sets(data, field, h)
    d, e = g.degree(), h.degree()
    A2, B2 = [x * lam for x in A], [y * lam ** (d - e) for y in B]
    assert _image(field, g, h, A2, B2) == canonical_sort(
        {v * lam ** d for v in _image(field, g, h, A, B)})
    _certificate_holds(data, field, g, h, A2, B2, g.leading_coefficient())
