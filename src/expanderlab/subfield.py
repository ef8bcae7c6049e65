"""Subfield sharpness runs: how far the bound is from sharp when B is a
subfield K plus one point theta outside it.

With g, h over K and A in K minus 0 and the roots of h, f(A, K) = K, and
each theta record's image is p^m + N(A), N(A) the number of distinct
(g(x), h(x)) over A.  Theta records carry floor((1 + c/2) p^m - 1), the
"proved" growth threshold, and floor((1 + c) p^m - 1), the conjectured
one; neither is raised on, and the tests assert the proved one only for
g = x^2, h = x on F_9 and F_25.

:func:`subfield_experiment` hands its one run to the measuring kernel of
:mod:`expanderlab.explore` and returns its :class:`~expanderlab.explore.Ranked`;
:func:`parse_c` is the one reader of c, for the CLI and the library.
Only ``subfield`` loads this module, so a search compiles none of it.
"""

from __future__ import annotations

import math

from .errors import InvalidParametersError, ParseError, _count
from .explore import Ranked, _measure
from .field import Field, parse_field
from .instance import check_degrees
from .poly import parse_poly
from .rng import Xoshiro256StarStar

MAX_C_EXPONENT = 4300       # Fraction builds 10**|e| before any range check


def parse_c(value):
    """``c`` as an exact ``fractions.Fraction`` of a number or of text such
    as "1/2" or "5e-1"; text whose decimal exponent exceeds
    ``MAX_C_EXPONENT`` in magnitude is refused before ``Fraction`` expands
    it.  What ``Fraction`` cannot read (a zero denominator, an infinity, a
    NaN, text that is no number) raises :class:`InvalidParametersError`
    naming c as given."""
    _, e, exponent = (value.lower() if isinstance(value, str) else "").rpartition("e")
    try:
        huge = bool(e) and abs(int(exponent)) > MAX_C_EXPONENT
    except ValueError:
        huge = False    # not an exponent; Fraction judges the text
    if huge:
        raise InvalidParametersError(
            f"c = {value!r} has a decimal exponent beyond ±{MAX_C_EXPONENT}")
    from fractions import Fraction    # only subfield reads c: keep it off start-up
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError):
        raise InvalidParametersError(f"c = {value!r} is not a finite number") from None


def subfield_experiment(field, m: int, c_fraction, g: str = "x^2", h: str = "x",
                        theta_count: int | None = None, seed: int = 0,
                        random_a: bool = False, parallelism: int = 1) -> Ranked:
    """Image growth when B is the order-p^m subfield K plus one point.

    A is ceil(c * p^m) elements of K minus {0} and the roots of h, clipped
    to what exists: the first ones in canonical order by default, or a
    seeded random subset with ``random_a``.  The first record is the
    baseline B = K; the rest sweep theta over the complement of K in
    canonical order, or over a seeded sample of ``theta_count`` of them.
    Thresholds appear only on the theta records; the baseline has nothing
    to exceed.  ``random_a`` is a bool; ``parallelism`` is a count >= 1,
    otherwise unused: evaluation is single-threaded.
    """
    field = field if isinstance(field, Field) else parse_field(field)
    if _count(m, "m", 1) >= field.n or field.n % m:
        raise InvalidParametersError(
            f"m = {m} must properly divide the extension degree {field.n}")
    c = parse_c(c_fraction)
    if not 0 < c < 1:
        # c_fraction as given: a huge c may have too many digits to print
        raise InvalidParametersError(f"c must satisfy 0 < c < 1, got {c_fraction}")
    _count(parallelism, "parallelism", 1)
    if not isinstance(random_a, bool):
        raise ParseError(f"random_a must be True or False, got {random_a!r}")
    g_poly = parse_poly(g, field)
    h_poly = parse_poly(h, field)
    check_degrees(g_poly, h_poly)

    rng = Xoshiro256StarStar(seed)
    q_m = field.p ** m
    K_idx = tuple(y.index() for y in field.subfield(m))
    pool = [i for i in K_idx if i and h_poly.at_index(i)]
    if not pool:
        raise InvalidParametersError("no usable subfield elements for A")
    a = min(math.ceil(c * q_m), len(pool))
    picks = rng.sample_indices(len(pool), a) if random_a else range(a)
    A = tuple(pool[i] for i in picks)

    K_set = set(K_idx)
    thetas = [i for i in range(field.order) if i not in K_set]
    if theta_count is not None:
        if _count(theta_count, "theta_count", 1) > len(thetas):
            raise InvalidParametersError(
                f"theta_count = {theta_count} outside [1, {len(thetas)}]")
        picks = rng.sample_indices(len(thetas), theta_count)
        thetas = [thetas[i] for i in picks]

    Bs = [K_idx] + [tuple(sorted(K_idx + (theta,))) for theta in thetas]
    ranked = _measure(field, g_poly, h_poly, [(A, Bs, K_idx + tuple(thetas))], by_slack=False)
    # Row 0 is the baseline's, the first pair's, and no other: theta's B has p^m + 1.
    thresholds = (math.floor((1 + c / 2) * q_m - 1), math.floor((1 + c) * q_m - 1))
    ranked.rows[1:] = [row[:8] + thresholds + row[10:] for row in ranked.rows[1:]]
    return ranked
