"""Independent reference implementations used only by the test suite.

Each oracle recomputes a quantity by a different route than the library
(Pascal's triangle instead of Lucas digits, direct bivariate expansion
instead of closed-form coefficients, Gauss-Jordan elimination instead of
Lagrange dual bases, a digit test of every k in range instead of
enumerating the digit-dominating k, int sets of value indices instead of
OR-ed bit masks, built symmetric differences instead of intersection
counts, coefficient vectors, extended Euclid and Frobenius fixed points
instead of index tables, a minimum over powers of p instead of Lucas digit
tests, one f-string per record instead of rows rendered once, argparse
instead of the CLI's option table) so that agreement is evidence, not
tautology.
"""

from __future__ import annotations

import argparse
import functools
import itertools

from expanderlab import bound as bound_mod
from expanderlab.bound import lucas_nonvanishing
from expanderlab.cli import (
    FORMATS,
    cmd_bound,
    cmd_certify,
    cmd_image,
    cmd_search,
    cmd_selftest,
    cmd_subfield,
)
from expanderlab.explore import ExperimentRecord
from expanderlab.extension import _is_irreducible, _vec_mod, _vec_mul, _vec_trim
from expanderlab.instance import negative_slack_error


def index_digits(i: int, p: int, n: int) -> list[int]:
    """The coefficient vector of canonical index i, lowest first: its n
    base-p digits."""
    return [i // p ** k % p for k in range(n)]


def digits_index(u, p: int) -> int:
    """The canonical index of a coefficient vector, lowest first."""
    return sum(c * p ** k for k, c in enumerate(u))


def vector_add(u: list[int], v: list[int], p: int, sign: int = 1) -> list[int]:
    """u + sign * v over F_p, coefficient by coefficient; the library adds
    extension elements through its Zech table."""
    return [(a + sign * b) % p for a, b in zip(u, v)]


def vector_mul(u: list[int], v: list[int], m: list[int], p: int) -> list[int]:
    """u * v modulo the monic m over F_p by schoolbook product and long
    division; the library multiplies by exp/log tables."""
    return _vec_mod(_vec_mul(u, v, p), m, p)


def vector_inverse(u: list[int], m: list[int], p: int) -> list[int]:
    """Inverse of the coefficient vector u modulo the monic irreducible m
    over F_p, by the extended Euclidean algorithm; the library reads
    exp[-log x] off its tables."""
    # Invariants: r0 = s0*u mod m, r1 = s1*u mod m.
    r0, r1 = [c % p for c in m], _vec_mod(u, m, p)
    s0, s1 = [], [1]
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    while r1:
        lead_inv = pow(r1[-1], p - 2, p)       # r1 need not be monic
        q = [0] * (max(len(r0) - len(r1), -1) + 1)
        r = r0[:]
        while len(r) >= len(r1):
            shift = len(r) - len(r1)
            factor = (r[-1] * lead_inv) % p
            q[shift] = factor
            for i, c in enumerate(r1):
                r[shift + i] = (r[shift + i] - factor * c) % p
            _vec_trim(r)
        r0, r1 = r1, r
        s0, s1 = s1, _vec_trim([(a - b) % p for a, b in
                                itertools.zip_longest(s0, _vec_mul(q, s1, p), fillvalue=0)])
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible (modulus not irreducible?)")
    scale = pow(r0[0], p - 2, p)
    return _vec_trim([(c * scale) % p for c in _vec_mod(s0, m, p)])


def frobenius_subfield(field, m: int) -> tuple:
    """The subfield of order p^m as the fixed points of a -> a^(p^m), tested
    on every element by m rounds of p vector multiplies; the library reads
    every (q-1)/(p^m-1)-th power of a primitive element off its exp table."""
    p, modulus = field.p, list(field.modulus)

    def fixed(u):
        w = u
        for _ in range(m):
            base, w = w, [1]
            for _ in range(p):
                w = vector_mul(w, base, modulus, p)
        return w == _vec_trim(list(u))

    return tuple(a for a in field.elements()
                 if fixed(index_digits(a.index(), p, field.n)))


def smallest_irreducible_scan(p: int, n: int) -> tuple[int, ...]:
    """The first monic irreducible of degree n, low-degree-first tuples, by
    a scan of every candidate; the library skips constant term 0."""
    for tail in itertools.product(range(p), repeat=n):
        if _is_irreducible([*tail, 1], p):
            return (*tail, 1)
    raise AssertionError(f"no irreducible polynomial of degree {n} over F_{p}")


def binom_mod_pascal(k: int, r: int, p: int) -> int:
    """binom(k, r) mod p via Pascal's triangle, no factorials, no Lucas."""
    if r < 0 or r > k:
        return 0
    row = [1]
    for _ in range(k):
        row = [1] + [(row[i] + row[i + 1]) % p for i in range(len(row) - 1)] + [1]
    return row[r] % p


def pascal_rows_mod(p: int, k_max: int):
    """Yield rows k = 0 .. k_max of Pascal's triangle mod p incrementally,
    so sweeping all (k, r) pairs costs one addition each."""
    row = [1]
    yield row
    for _ in range(k_max):
        row = [1] + [(row[i] + row[i + 1]) % p for i in range(len(row) - 1)] + [1]
        yield row


def expand_shifted_product(C, field):
    """Coefficients of prod_{c in C} (u + v - c) as {(i, j): coeff}, by
    direct convolution over the field; u and v are independent formal
    variables."""
    acc = {(0, 0): field.one()}
    for c in C:
        c = field.element(c)
        nxt = {}
        for (i, j), a in acc.items():
            for key, m in (((i + 1, j), field.one()),
                           ((i, j + 1), field.one()),
                           ((i, j), -c)):
                prev = nxt.get(key, field.zero())
                nxt[key] = prev + a * m
        acc = {key: v for key, v in nxt.items() if not v.is_zero()}
    return acc


def solve_gauss_jordan(rows, rhs):
    """Solve the square system rows * sol = rhs over a field by Gauss-Jordan
    elimination, taking the first nonzero pivot in column order.  Exact;
    raises ValueError if the system is singular."""
    n = len(rows)
    m = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if pivot is None:
            raise ValueError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col].inverse()
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def top_moment_weights(points, field, scale=None):
    """{x: w(x)} solving sum_x w(x) * scale(x) * x^i = delta_{i, n-1} for
    i = 0 .. n-1 by Gauss-Jordan on the explicit n x n system, n = |points|;
    ``scale`` defaults to the constant 1."""
    points = [field.element(x) for x in points]
    n = len(points)
    col_scale = [scale(x) if scale is not None else field.one() for x in points]
    rows = [[s * x ** i for x, s in zip(points, col_scale)] for i in range(n)]
    rhs = [field.one() if i == n - 1 else field.zero() for i in range(n)]
    return dict(zip(points, solve_gauss_jordan(rows, rhs)))


def moment(weights: dict, power: int, field, transform=None):
    """sum_x weights[x] * transform(x)^power, with transform defaulting to
    the identity.  Plain loop, no library code."""
    total = field.zero()
    for x, w in weights.items():
        v = transform(x) if transform is not None else x
        total = total + w * v ** power
    return total


def image_double_loop(field, g, h, A, B):
    """{g(x) + y*h(x)} as a set of field elements, by a double loop of
    field arithmetic; the library measures images on element indices."""
    out = set()
    for x in A:
        gx, hx = g(x), h(x)
        for y in B:
            out.add(gx + field.element(y) * hx)
    return out


def pointwise_double_loop(field, g, h, A, B, C, alpha, beta):
    """sum_{x,y} alpha(x) beta(y) prod_{c in C} (g(x) + y*h(x) - c) by a
    double loop of field arithmetic, one product per pair; the library
    groups the weights by the value index of f."""
    total = field.zero()
    for x in A:
        gx, hx = g(x), h(x)
        for y in B:
            prod = alpha[x] * beta[y]
            for c in C:
                prod = prod * (gx + y * hx - c)
            total = total + prod
    return total


def hopf_stiefel(p: int, r: int, s: int) -> int:
    """The Hopf-Stiefel number: min over j >= 0 of
    (ceil(r/p^j) + ceil(s/p^j) - 1) * p^j, by trying each power of p up to
    the first at least r + s - 1, past which no term is smaller.  It is the
    least |A + B| over |A| = r, |B| = s in a vector space over F_p
    (Eliahou and Kervaire, J. Number Theory 71, 1998); the library takes the
    best k whose binomial survives Lucas' digit test."""
    best, q = r + s - 1, 1
    while q < r + s - 1:
        q *= p
        best = min(best, (-(-r // q) - (-s // q) - 1) * q)
    return best


def plain_line(r) -> str:
    """The plain-format line of one ExperimentRecord, one f-string over its
    fields; the library renders each distinct row once and joins in A and B."""
    extra = ("" if r.proved_threshold is None else
             f" proved>={r.proved_threshold} conjectured>={r.conjectured_threshold}")
    return (f"slack={r.slack} field={r.field} g={r.g} h={r.h} a={r.a} b={r.b}"
            f" image={r.image_size} bound={r.theorem_bound}"
            f" A={{{','.join(r.A)}}} B={{{','.join(r.B)}}}{extra}\n")


def admissible_k_scan(a: int, b: int, d: int, p) -> tuple[int, ...]:
    """The admissible k of ``theorem_bound`` by a scan of the whole range
    b-1 .. floor((a-1)/d) + b - 1, one Lucas digit test per k; the library
    enumerates the digit-dominating k directly."""
    return tuple(k for k in range(b - 1, (a - 1) // d + b)
                 if lucas_nonvanishing(k, b - 1, p))


def nearest_by_symmetric_difference(b_indices, subfield_sets):
    """(|B ^ K|, |K|) for the subfield K nearest to B, ties to the larger,
    by building each symmetric difference, the whole field's too; the
    library counts |B & K| and takes q - |B| for the whole field."""
    dist, neg_order = min((len(frozenset(b_indices) ^ k_set), -order)
                          for order, k_set in subfield_sets)
    return dist, -neg_order


def measure_int_sets(field, g, h, tasks):
    """``explore._measure`` over the (A, B) tasks of its runs, in run order,
    by int sets: a touched-pairs table filled per (task, x), one value-row
    call per touched x, then each image size as the size of a set of value
    indices built from scratch for every task; the library ORs per-A column
    masks and counts bits."""
    elements = field.elements()
    names = [str(x) for x in elements]
    field_s, g_s, h_s = str(field), str(g), str(h)
    subfield_sets = [(field.p ** m, frozenset(x.index() for x in field.subfield(m)))
                     for m in range(1, field.n + 1) if field.n % m == 0]
    strings = functools.cache(lambda idx: tuple(names[i] for i in idx))
    nearest = functools.cache(
        lambda B: nearest_by_symmetric_difference(B, subfield_sets))
    bound = functools.cache(lambda a, b: bound_mod.theorem_bound(
        a, b, g.degree(), field.p).bound)

    rows = {}
    for A_idx, B_idx in tasks:
        cols = dict.fromkeys(B_idx)
        for i in A_idx:
            rows.setdefault(i, {}).update(cols)
    for i, row in rows.items():
        cols = list(row)
        row.update(zip(cols, bound_mod.value_rows(g, h, [i], cols)[0]))
    sizes = [len({rows[i][j] for i in A_idx for j in B_idx})
             for A_idx, B_idx in tasks]

    records = []
    for (A_idx, B_idx), size in zip(tasks, sizes):
        a, b = len(A_idx), len(B_idx)
        tb = bound(a, b)
        if size < tb:
            raise negative_slack_error(field_s, g_s, h_s, strings(A_idx),
                                       strings(B_idx), size, tb)
        records.append(ExperimentRecord(
            field_s, g_s, h_s, a, b, size, tb, size - tb, None, None,
            *nearest(B_idx), strings(A_idx), strings(B_idx)))
    return records


# The argument parser the CLI used before its option table, verbatim: the
# differential test in test_cli.py holds cli.parse_args to what it accepts.
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expander-lab",
        description="Exact lower bounds, certificates, and experiments for "
                    "image sets {g(x) + y*h(x)} over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    # image and certify: one explicit instance
    instance = argparse.ArgumentParser(add_help=False)
    for flag in ("--field", "--g", "--h"):
        instance.add_argument(flag, required=True)
    for flag in ("--A", "--B"):
        instance.add_argument(flag, required=True, help="comma-separated elements")

    # search and subfield: only the options given reach the namespace, so
    # config entries and the library's defaults fill in the rest
    sweep = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for flag in ("--field", "--g", "--h", "--seed", "--out"):
        sweep.add_argument(flag)
    sweep.add_argument("--parallelism",
                        help="must be >= 1; evaluation is single-threaded")
    sweep.add_argument("--format", choices=FORMATS)
    sweep.add_argument("--config", help="key=value file; flags override it")

    p = sub.add_parser("bound", help="compute the lower bound for sizes (a, b)")
    p.add_argument("--field", required=True,
                   help="prime, p^n, p^n/modulus, or inf")
    p.add_argument("--a", type=int, required=True, help="|A|")
    p.add_argument("--b", type=int, required=True, help="|B|")
    p.add_argument("--d", type=int, help="deg g (alternative to --g/--h)")
    p.add_argument("--g", help="polynomial g in x")
    p.add_argument("--h", help="polynomial h in x")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("image", parents=[instance],
                       help="evaluate the exact image of one instance")
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("certify", parents=[instance],
                       help="build and replay a certificate for one instance")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--C", help="explicit candidate set, comma-separated")
    group.add_argument("--k", type=int,
                       help="size of the random candidate set (default: best k)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random candidate set")
    p.add_argument("--out", help="write the certificate JSON here instead of stdout")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("search", parents=[sweep], argument_default=argparse.SUPPRESS,
                       help="sweep (A, B) pairs and rank them by slack")
    p.add_argument("--a", help="|A| as N or LO-HI")
    p.add_argument("--b", help="|B| as N or LO-HI")
    p.add_argument("--mode", choices=("exhaustive", "random"))
    p.add_argument("--sample-count")
    p.add_argument("--budget",
                   help="work budget in value evaluations, a * b per pair")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("subfield", parents=[sweep], argument_default=argparse.SUPPRESS,
                       help="measure image growth over a subfield plus one point")
    p.add_argument("--m", help="subfield degree, a proper divisor of n")
    p.add_argument("--c-fraction", help="|A| = ceil(c * p^m), 0 < c < 1")
    p.add_argument("--theta-count", help="sample this many external points instead of all")
    p.add_argument("--random-a", action="store_true",
                   help="draw A at random from the subfield instead of "
                        "taking the first elements")
    p.set_defaults(func=cmd_subfield)

    p = sub.add_parser("selftest", help="run the embedded check suite")
    p.set_defaults(func=cmd_selftest)

    return parser
