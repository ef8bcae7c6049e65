"""Lower bounds for image sets {g(x) + y*h(x) : x in A, y in B}.

Setting: g, h univariate over a finite field, d = deg g > deg h, A a set of
field elements avoiding the roots of h, B any set of field elements,
a = |A|, b = |B|.  If k satisfies

    b - 1 <= k <= (a - 1)/d + b - 1   and   binom(k, b-1) != 0 in the field,

then the image has more than k elements.  :func:`theorem_bound` enumerates
the k whose base-p digits dominate those of b-1 (Lucas' theorem read
constructively: N. J. Fine, "Binomial coefficients modulo a prime", Amer.
Math. Monthly 54, 1947), meeting in the middle of the digits, and reports
them all with the best one; every one is reported because nonvanishing
mod p is not monotone in k.  :func:`corollary_bound` is the closed-form
consequence min(a/d + b - 1, p), floored to an integer.

``characteristic`` arguments accept a prime up to ``MAX_CHARACTERISTIC``
or ``math.inf``, the sentinel for characteristic zero, where no binomial
with 0 <= r <= k vanishes and the p-cap never binds; the digit code runs
it as an integer base above every k in question.  The field size limits,
``is_prime`` and their one check live here: ``bound --d`` needs no field.

Besides the theorem, this module holds only the evaluation kernel,
:func:`value_rows`, and :func:`image`, which reads an instance's field, g,
h, A and B and nothing more.  Building and checking an instance is
:mod:`expanderlab.instance`'s work, so ``bound --d`` compiles neither that
layer nor the field layer.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidParametersError, ParseError

if TYPE_CHECKING:                # annotations only: `bound --d` loads no field layer
    from .field import FieldElem
    from .instance import ExpanderInstance
    from .poly import Poly

INF = math.inf

MAX_ADMISSIBLE_K = 10**7    # theorem_bound reports every admissible k
MAX_CHARACTERISTIC = 10**12    # field's brute-force searches stay fast under these
MAX_EXTENSION_ORDER = 10**5


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


def _check_characteristic(p, n=None) -> None:
    """The one check of a characteristic: a prime up to ``MAX_CHARACTERISTIC``,
    or ``INF`` unless :class:`Field` passes its degree n, when p^n must stay
    under ``MAX_EXTENSION_ORDER`` (n capped, as 2^64 exceeds it)."""
    if p == INF and n is None:
        return
    if isinstance(p, int):
        if p > MAX_CHARACTERISTIC:
            raise InvalidParametersError(f"characteristic {p} over the limit {MAX_CHARACTERISTIC}")
        if isinstance(n, int) and n > 1 and p > 1 and p ** min(n, 64) > MAX_EXTENSION_ORDER:
            raise InvalidParametersError(f"{p}^{n} elements over the limit {MAX_EXTENSION_ORDER}")
    if not isinstance(p, int) or not is_prime(p):
        raise InvalidParametersError(f"characteristic {p!r} is not prime")


def _check_arguments(a: int, b: int, d: int, characteristic) -> None:
    """The arguments :func:`theorem_bound` and :func:`corollary_bound` share."""
    if a < 1 or b < 1 or d < 1:
        raise InvalidParametersError(f"need a, b, d >= 1, got a={a}, b={b}, d={d}")
    _check_characteristic(characteristic)


def parse_characteristic(text: str):
    """Parse "13" or "inf"."""
    s = text.strip().lower()
    if s == "inf":
        return INF
    try:
        p = int(s)
    except ValueError:
        raise ParseError(f"characteristic must be prime or inf, got {text!r}") from None
    _check_characteristic(p)
    return p


def lucas_nonvanishing(k: int, r: int, characteristic) -> bool:
    """Whether binom(k, r) is nonzero in characteristic p.

    For prime p this is the digit test: every base-p digit of r must be at
    most the corresponding digit of k.  The infinite sentinel runs as base
    k + 1, where k and r are single digits, so the test is r <= k: the
    binomial is an ordinary positive integer.
    """
    if k < 0 or r < 0:
        raise InvalidParametersError(f"k and r must be non-negative, got k={k}, r={r}")
    _check_characteristic(characteristic)
    return _digits_dominate(k, r, k + 1 if characteristic == INF else characteristic)


def _digits_dominate(k: int, r: int, p: int) -> bool:
    """:func:`lucas_nonvanishing`'s digit test with the base p taken as given,
    for a caller whose p is a :class:`Field`'s, checked when it was built."""
    if r > k:
        return False
    while r:
        if r % p > k % p:
            return False
        r //= p
        k //= p
    return True


def _dominating(r: int, hi: int, p: int) -> list:
    """The k <= hi whose base-p digits dominate those of r, in ascending
    order, as ``range`` or ``list`` chunks; every such k is at least r.
    Needs r <= hi and an integer base p >= 2, or p = 1 with hi = 0.

    Meet in the middle: the dominating completions of the low half of the
    digits are listed once, the high-half prefixes up to ``hi`` come from
    this enumeration one level down, and each prefix plus the low block is
    emitted in turn, only the last cut at ``hi``.  Below one past r's lowest
    nonzero digit every digit is free, so a low half no wider is one
    ``range`` per prefix (one in all when r = 0 or p > hi); a wider one
    makes a single flat list.
    """
    powers = [1]
    while powers[-1] <= hi:                  # until p^width > hi
        powers.append(powers[-1] * p)
    width = len(powers) - 1                  # how many digits 0 .. hi have
    free = next((i + 1 for i in range(width) if r // powers[i] % p), width)
    split = max(free, (width + 1) // 2)
    block = powers[split]
    low = range(r % powers[free], powers[free])
    for i in range(free, split):
        low = [x + digit * powers[i] for digit in range(r // powers[i] % p, p) for x in low]
    prefixes = ([h * block for chunk in _dominating(r // block, hi // block, p) for h in chunk]
                if split < width else [0])
    chunks = ([range(h + low.start, h + low.stop) for h in prefixes] if isinstance(low, range)
              else [[h + x for h in prefixes for x in low]])
    chunks[-1] = chunks[-1][:bisect.bisect_right(chunks[-1], hi)]
    return chunks if chunks[-1] else chunks[:-1]


def _count_dominating(r: int, hi: int, p: int) -> int:
    """How many k <= hi dominate r digit by digit, in O(log_p hi) steps.

    Digit by digit from the bottom: ``full`` counts the dominating
    completions of the low positions, the product of p - r_i (Fine 1947),
    and ``count`` those that stay at most hi's low digits.
    """
    count = full = 1
    while hi or r:
        (hi, top), (r, digit) = divmod(hi, p), divmod(r, p)
        count = max(0, top - digit) * full + (count if top >= digit else 0)
        full *= p - digit
    return count


class BoundReport(NamedTuple):
    """The admissible k for one (a, b, d, characteristic): the k in the
    range whose base-p digits dominate those of b - 1, all of them.

    ``best_k`` is the largest admissible k; k = b - 1 always is one.
    ``fallback`` is always False and kept so the JSON keys stay as they are.
    """

    a: int
    b: int
    d: int
    characteristic: object
    k_max_range: int
    admissible_k: tuple[int, ...]
    best_k: int
    bound: int
    fallback: bool

    def to_dict(self) -> dict:
        return {**self._asdict(), "admissible_k": list(self.admissible_k),
                "characteristic": ("inf" if self.characteristic == INF
                                   else self.characteristic)}


def theorem_bound(a: int, b: int, d: int, characteristic) -> BoundReport:
    """Best lower bound from the admissible k.

    Enumerates the k in b-1 .. floor((a-1)/d) + b - 1 whose base-p digits
    dominate those of b-1, which are exactly those where binom(k, b-1)
    survives in the given characteristic (Lucas; Fine 1947), and returns
    best_k + 1.  The whole range is enumerated, not just its top, because
    nonvanishing mod p is not monotone in k.  k = b-1 always passes
    (binom(k, k) = 1), so the set is never empty.  The characteristic is
    validated once.  More than ``MAX_ADMISSIBLE_K`` admissible k, counted
    in closed form, raise :class:`InvalidParametersError` before any is
    enumerated.
    """
    _check_arguments(a, b, d, characteristic)
    k_max_range = (a - 1) // d + b - 1
    p = k_max_range + 1 if characteristic == INF else characteristic
    if _count_dominating(b - 1, k_max_range, p) > MAX_ADMISSIBLE_K:
        raise InvalidParametersError(
            f"more than {MAX_ADMISSIBLE_K} admissible k for "
            f"a={a}, b={b}, d={d}; the report lists every one")
    admissible = tuple(itertools.chain.from_iterable(
        _dominating(b - 1, k_max_range, p)))
    best_k = admissible[-1]
    return BoundReport(a, b, d, characteristic, k_max_range,
                       admissible, best_k, best_k + 1, False)


def corollary_bound(a: int, b: int, d: int, characteristic) -> int:
    """Closed form min(a/d + b - 1, p) as an integer: the rational is
    floored to a // d + b - 1 (the largest integer the strict inequality
    certifies) and the result never drops below 1, since a nonempty image
    has size >= 1."""
    _check_arguments(a, b, d, characteristic)
    value = a // d + b - 1
    if characteristic != INF and characteristic < value:
        value = characteristic
    return max(1, value)


def value_rows(g: Poly, h: Poly, xs, ys) -> list[tuple[int, ...]]:
    """For each index x in ``xs``, the indices of g(x) + y*h(x) over the index
    sequence ``ys``.  The one evaluation kernel: :func:`image` and the drivers
    build these rows once and measure image sizes from them.  Per x, g(x) and
    h(x) are :meth:`Poly.at_index`; each value is two index ops."""
    add, _, mul, _ = g.field.index_ops()
    rows = []
    for x in xs:
        gx, hx = g.at_index(x), h.at_index(x)
        rows.append(tuple(add(gx, mul(y, hx)) for y in ys))
    return rows


def image(instance: ExpanderInstance) -> tuple[FieldElem, ...]:
    """The exact set {g(x) + y*h(x) : x in A, y in B}, in canonical order."""
    rows = value_rows(instance.g, instance.h, [x.index() for x in instance.A],
                      [y.index() for y in instance.B])
    return tuple(map(instance.field.from_index, sorted(set().union(*rows))))
