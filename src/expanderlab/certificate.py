"""Constructive certificates for the image-set lower bound.

The bound on {g(x) + y*h(x)} rests on one algebraic identity.  For any
size-k duplicate-free C in the field, expand

    P(x, y) = prod_{c in C} (g(x) + y*h(x) - c)
            = sum_{i+j <= k} lambda_{i,j} g(x)^i h(x)^j y^j,

with lambda_{i,j} = (-1)^(k-i-j) e_{k-i-j}(C) binom(i+j, j); e_r is the
elementary symmetric polynomial.  Pick weights beta on B with

    sum_y beta(y) y^j = delta_{j, b-1}        (j = 0 .. b-1)

and weights alpha on A with

    sum_x alpha(x) h(x)^(b-1) x^i = delta_{i, D}   (i = 0 .. D),

where D = d*(k - b + 1) and d = deg g.  Both are inverse-Vandermonde
problems with a closed form, the Lagrange dual basis
w(y) = 1 / prod_{z != y} (y - z) over distinct points: beta = w on B, and
alpha(x) h(x)^(b-1) = w on the first D + 1 points of A, with zero weight
on the rest.  Then the weighted sum
sum_{x,y} alpha(x) beta(y) P(x, y) collapses: every term except
(i, j) = (k-b+1, b-1) dies against a moment condition or a degree drop,
leaving binom(k, b-1) * M^(k-b+1) with M the leading coefficient of g.
That value is independent of C and nonzero for admissible k.  If C
covered the whole image, P would vanish on all of A x B and the sum would
be zero instead; so no admissible-size C covers the image.

:func:`build_certificate` takes beta from :func:`solve_beta` and alpha from
:func:`solve_alpha`, the one path that computes the weights, and hands
their dicts to the pointwise sum, which works on indices.  A
:class:`Certificate` holds what its JSON form (:meth:`Certificate.to_dict`)
carries: the instance, C, alpha, beta and both sides, enough to replay the
moment conditions and the pointwise sum with field arithmetic alone.  The
lambda table and e depend on C only; a checker recomputes them from C.
:func:`refute_cover` turns the identity into an explicit counterexample
to a proposed cover.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bound import (
    ExpanderInstance,
    _digits_dominate,
    _distinct_points,
    check_degrees,
    value_rows,
)
from .errors import FieldMismatchError, InternalInvariantError, InvalidParametersError
from .field import Field, FieldElem, _power, canonical_sort
from .poly import Poly


def binomial_in_field(field: Field, k: int, r: int) -> FieldElem:
    """binom(k, r) as an exact integer reduced into the field."""
    if r < 0 or r > k:
        return field.zero()
    return field.element(math.comb(k, r) % field.p)


def elementary_symmetric(field: Field, values) -> tuple[FieldElem, ...]:
    """(e_0, e_1, ..., e_k) of the given values, e_0 = 1.  Standard one-row
    dynamic program; exact field arithmetic."""
    e = [field.one()]
    for v in values:
        v = field.element(v)
        e.append(field.zero())
        for i in range(len(e) - 1, 0, -1):
            e[i] = e[i] + v * e[i - 1]
    return tuple(e)


def lambda_coefficients(C, g: Poly, h: Poly) -> dict:
    """{(i, j): lambda_{i,j}} for all i, j >= 0 with i + j <= k = |C|.

    g and h fix the field and are checked for consistency with C; the
    values themselves depend only on C.  C must be distinct and may be
    empty: k = 0 gives {(0, 0): 1}, the empty product.
    """
    if g.field != h.field:
        raise FieldMismatchError("g and h live over different fields")
    field = g.field
    C = _distinct_points((field.element(c) for c in C), "C", nonempty=False)
    k = len(C)
    e = elementary_symmetric(field, C)
    out = {}
    for s in range(k + 1):
        sign_e = e[k - s] if (k - s) % 2 == 0 else -e[k - s]
        for j in range(s + 1):
            out[(s - j, j)] = sign_e * binomial_in_field(field, s, j)
    return out


def _dual_weights(field: Field, points) -> list[int]:
    """w(y) = 1 / prod_{z != y} (y - z) for the distinct point indices, as
    indices: the Lagrange dual basis, i.e. the unique weights with
    sum_y w(y) y^j = delta_{j, n-1} for j = 0 .. n-1, where n = |points|.
    O(n^2) index multiplications."""
    _, sub, mul, inv = field.index_ops()
    out = []
    for y in points:
        prod = 1
        for z in points:
            if z != y:
                prod = mul(prod, sub(y, z))
        out.append(inv(prod))
    return out


def solve_beta(B) -> dict:
    """Weights {y: beta(y)} on B with sum_y beta(y) y^j = delta_{j, b-1}
    for j = 0 .. b-1: the Lagrange dual weights of B.  The Vandermonde
    determinant over distinct points is nonzero, so they are the unique
    solution.  Repeated points are rejected."""
    B = _distinct_points(B, "B")
    field = B[0].field
    return dict(zip(B, map(field.from_index, _dual_weights(field, [y.index() for y in B]))))


def solve_alpha(A, h: Poly, b: int, target_degree: int) -> dict:
    """Weights {x: alpha(x)} on A with
    sum_x alpha(x) h(x)^(b-1) x^i = delta_{i, D} for i = 0 .. D.

    The system is underdetermined when |A| > D + 1; the convention is to
    support alpha on the first D + 1 elements of A in canonical order and
    set the remaining weights to zero (still present in the result).  On
    the support, u(x) = alpha(x) h(x)^(b-1) are the Lagrange dual weights,
    the unique solution there, so alpha = u / h^(b-1).  Requires distinct
    points, D <= |A| - 1 and h nonvanishing on A.
    """
    A = _distinct_points(A, "A")
    D = target_degree
    if b < 1:
        raise InvalidParametersError(f"need b >= 1, got {b}")
    if D < 0:
        raise InvalidParametersError(f"target degree must be >= 0, got {D}")
    if D > len(A) - 1:
        raise InvalidParametersError(
            f"target degree {D} needs {D + 1} points but |A| = {len(A)}")
    field = h.field
    _, _, mul, inv = field.index_ops()
    support = [field.element(x).index() for x in A[:D + 1]]
    hs = [h.at_index(x) for x in support]
    if 0 in hs:
        raise InvalidParametersError(
            f"A contains root {field.from_index(support[hs.index(0)])} of h")
    weights = [mul(u, _power(inv(hx), b - 1, 1, mul))
               for u, hx in zip(_dual_weights(field, support), hs)] + [0] * (len(A) - D - 1)
    return dict(zip(A, map(field.from_index, weights)))


def _moments_match(weights: dict, points, scale, top: int) -> bool:
    """Whether sum_z weights[z] * scale(z) * z^i = delta_{i, top} for
    i = 0 .. top, replayed by direct summation over ``points``."""
    zero, scaled = points[0].field.zero(), [(weights[z] * scale(z), z) for z in points]
    return all(sum((w * z ** i for w, z in scaled), zero) == int(i == top)
               for i in range(top + 1))


def verify_beta(beta: dict, B, b: int) -> bool:
    """Replay the beta moment conditions over B by direct summation."""
    B = canonical_sort(B)
    if not B or b < 1 or len(B) != b or any(y not in beta for y in B):
        return False
    return _moments_match(beta, B, lambda y: 1, b - 1)


def verify_alpha(alpha: dict, A, h: Poly, b: int, target_degree: int) -> bool:
    """Replay the alpha moment conditions over A by direct summation."""
    A = canonical_sort(A)
    if not A or b < 1 or target_degree < 0 or any(x not in alpha for x in A):
        return False
    return _moments_match(alpha, A, lambda x: h(x) ** (b - 1), target_degree)


def _pointwise_sum(g: Poly, h: Poly, alpha: dict, beta: dict, C) -> FieldElem:
    """sum_{x,y} alpha(x) beta(y) prod_{c in C} (f(x, y) - c) for the weight
    dicts alpha on A and beta on B.  The points and weights become indices
    once; f is read off :func:`value_rows` over the support of alpha, and the
    weights are summed per value of f, so each product is formed once per
    distinct value."""
    field = g.field
    add, sub, mul, _ = field.index_ops()
    support = [(x.index(), ax.index()) for x, ax in alpha.items() if not ax.is_zero()]
    B, beta = [y.index() for y in beta], [by.index() for by in beta.values()]
    C = [c.index() for c in C]
    weights = {}
    for (_, ax), row in zip(support, value_rows(g, h, [x for x, _ in support], B)):
        for by, v in zip(beta, row):
            weights[v] = add(weights.get(v, 0), mul(ax, by))
    total = 0
    for v, prod in weights.items():
        for c in C:
            prod = mul(prod, sub(v, c))
        total = add(total, prod)
    return field.from_index(total)


class Certificate(NamedTuple):
    """A fully materialized instance of the collapsing identity, storing
    what :meth:`to_dict` serialises; :func:`lambda_coefficients` recomputes
    the lambda table from C."""

    instance: ExpanderInstance
    C: tuple
    beta: dict
    alpha: dict
    predicted: FieldElem
    pointwise: FieldElem

    @property
    def k(self) -> int:
        return len(self.C)

    @property
    def identity_holds(self) -> bool:
        return self.predicted == self.pointwise

    def to_dict(self) -> dict:
        inst = self.instance
        return {
            **inst.to_dict(),
            "C": [str(c) for c in self.C],
            "alpha": {str(x): str(self.alpha[x]) for x in inst.A},
            "beta": {str(y): str(self.beta[y]) for y in inst.B},
            "predicted": str(self.predicted),
            "pointwise": str(self.pointwise),
            "identity_holds": self.identity_holds,
        }


def _check_admissible(instance: ExpanderInstance, k: int) -> None:
    a, b, d, p = instance.a, instance.b, instance.d, instance.field.p
    k_max_range = (a - 1) // d + b - 1
    if k < b - 1 or k > k_max_range:
        raise InvalidParametersError(f"k = {k} fails the range condition [{b - 1}, {k_max_range}]")
    if not _digits_dominate(k, b - 1, p):
        raise InvalidParametersError(f"k = {k} fails the Lucas condition: binom({k}, {b - 1}) "
                                     f"vanishes in characteristic {p}")


def build_certificate(instance: ExpanderInstance, C) -> Certificate:
    """Construct alpha, beta and both sides of the identity for the given
    candidate set C (any size-k set works and yields the same predicted
    value; k = |C| must be admissible).  A hand-built instance is checked
    by :func:`check_degrees` first, and the weights come from
    :func:`solve_beta` and :func:`solve_alpha`, so one with bad degrees or
    a repeated point is refused as bad input; an empty or repeated A or B is
    named before k is checked."""
    check_degrees(instance.g, instance.h)
    A, beta = _distinct_points(instance.A, "A"), solve_beta(instance.B)
    field = instance.field
    C = _distinct_points((field.element(c) for c in C), "C", nonempty=False)
    k = len(C)
    _check_admissible(instance, k)
    g, h, b = instance.g, instance.h, instance.b
    alpha = solve_alpha(A, h, b, instance.d * (k - b + 1))
    if k > field.order - 1:
        # Unreachable: admissible k <= q-1 whenever A, B are distinct subsets of F_q.
        raise InternalInvariantError(f"admissible k = {k} exceeds |F| - 1")
    M = g.leading_coefficient()
    predicted = binomial_in_field(field, k, b - 1) * M ** (k - b + 1)
    if predicted.is_zero():
        raise InternalInvariantError(
            "predicted value vanished despite the Lucas check")
    return Certificate(instance, C, beta, alpha, predicted, _pointwise_sum(g, h, alpha, beta, C))


class RefutationReport(NamedTuple):
    """Evidence that a proposed size-k cover C cannot contain the image."""

    certificate: Certificate
    witness_x: FieldElem
    witness_y: FieldElem
    witness_value: FieldElem

    def to_dict(self) -> dict:
        return {**self.certificate.to_dict(),
                "witness_x": str(self.witness_x), "witness_y": str(self.witness_y),
                "witness_value": str(self.witness_value)}


def refute_cover(instance: ExpanderInstance, C) -> RefutationReport:
    """Show that the proposed C (of admissible size) misses an image value.

    The certificate's sum over A x B equals a nonzero constant; if C
    contained every g(x) + y*h(x), each product would carry a vanishing
    factor and the sum would be zero.  So a witness pair (x, y) whose
    value escapes C must exist; the first one in canonical order is
    returned.  C covering the image would contradict the identity and is
    reported as an internal error.
    """
    cert = build_certificate(instance, C)
    c_idx = {c.index() for c in cert.C}
    B, B_idx = instance.B, [y.index() for y in instance.B]
    for x in instance.A:   # one row at a time, so the scan stops at the witness
        for y, v in zip(B, value_rows(instance.g, instance.h, [x.index()], B_idx)[0]):
            if v not in c_idx:
                return RefutationReport(cert, x, y, instance.field.from_index(v))
    raise InternalInvariantError(
        "C covers the image yet the collapsing sum is nonzero")
