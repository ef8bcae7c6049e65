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
"""

import collections

from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab.bound import ExpanderInstance, image
from expanderlab.explore import search_extremal
from expanderlab.field import parse_field
from expanderlab.poly import Poly

FIELDS = {text: parse_field(text) for text in ("13", "3^2", "2^4", "999983", "2^16")}


def _compose(p, s, r):
    """p(s*x + r)."""
    lin = Poly(p.field, (r, s))
    return sum((lin ** i * c for i, c in enumerate(p.coeffs)), Poly(p.field))


# name: ((g, h, r, s) -> (g', h'), (A, B, r, s) -> the instance of (g, h)
# whose image has the size of (A, B)'s under (g', h')).
TRANSFORMS = {
    "B-translation": (lambda g, h, r, s: (g + h * r, h),
                      lambda A, B, r, s: (A, [y + r for y in B])),
    "B-scaling": (lambda g, h, r, s: (g, h * s),
                  lambda A, B, r, s: (A, [y * s for y in B])),
    "value scaling": (lambda g, h, r, s: (g * s, h * s),
                      lambda A, B, r, s: (A, B)),
    "affine substitution": (lambda g, h, r, s: (_compose(g, s, r), _compose(h, s, r)),
                            lambda A, B, r, s: ([x * s + r for x in A], B)),
}


@st.composite
def setups(draw, fields):
    """(field, g, h, r, s): deg g in 1..3, h nonzero of lower degree, r != 0
    and s != 0, 1 (index 1 is the element 1)."""
    field = FIELDS[draw(st.sampled_from(fields))]
    elem = st.integers(0, field.order - 1).map(field.from_index)
    nonzero = st.integers(1, field.order - 1).map(field.from_index)

    def poly(degree):
        return Poly(field, [*draw(st.lists(elem, min_size=degree, max_size=degree)),
                            draw(nonzero)])

    d = draw(st.integers(1, 3))
    g, h = poly(d), poly(draw(st.integers(0, d - 1)))
    return field, g, h, draw(nonzero), field.from_index(draw(st.integers(2, field.order - 1)))


def _cell_histogram(field, g, h):
    """Counter of (a, b, image_size) over an exhaustive search's pairs."""
    ranked = search_extremal(field, str(g), str(h), (1, 3), (1, 2))
    return collections.Counter(ranked.rows[i][3:6] for i in ranked.ids)


@settings(max_examples=25, deadline=None)
@given(setups(("13", "3^2", "2^4")))
def test_exhaustive_search_sizes_are_invariant(setup):
    field, g, h, r, s = setup
    want = _cell_histogram(field, g, h)
    for name, (new_polys, _) in TRANSFORMS.items():
        g2, h2 = new_polys(g, h, r, s)
        assert (g2.degree(), h2.degree()) == (g.degree(), h.degree()), name
        assert _cell_histogram(field, g2, h2) == want, name


@settings(max_examples=60, deadline=None)
@given(setups(("999983", "2^16")), st.sampled_from(sorted(TRANSFORMS)), st.data())
def test_image_sizes_of_random_instances_are_invariant(setup, name, data):
    field, g, h, r, s = setup
    new_polys, old_sets = TRANSFORMS[name]
    sets = st.lists(st.integers(0, field.order - 1), min_size=1, max_size=6, unique=True)
    A, B = ([field.from_index(i) for i in data.draw(sets)] for _ in "AB")
    g2, h2 = new_polys(g, h, r, s)
    A1, B1 = old_sets(A, B, r, s)
    assert (len(image(ExpanderInstance(field, g2, h2, tuple(A), tuple(B))))
            == len(image(ExpanderInstance(field, g, h, tuple(A1), tuple(B1)))))
