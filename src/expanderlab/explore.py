"""Brute-force experiments: extremal searches and subfield sharpness runs.

Two drivers share one record format.

:func:`search_extremal` enumerates or samples pairs (A, B), measures the
exact image size against the proved bound, and returns the records sorted
by slack ascending so near-extremal configurations surface first.

:func:`subfield_experiment` probes how far the bound is from sharp when B
is a subfield K plus one external point.  With coefficients of g and h in
K and A inside K minus the roots of h, the image over B = K stays inside
K (no growth); appending one point theta forces growth.  Each record
carries the proved growth threshold floor((1 + c/2) p^m - 1), the
conjectured one floor((1 + c) p^m - 1) which is reported but never
asserted, and the distance from B to the nearest subfield.

Both drivers list a run as (A, B) tasks of element indices for one
measuring path: value rows from :func:`bound.value_rows` (the indices of
f = g(x) + y*h(x)) over only the (x, y) the tasks touch, image sizes as
int-set sizes, one negative-slack check, records in task order.  Both
drivers run in one thread, since a thread pool gained nothing under
the interpreter lock; ``parallelism`` is validated (>= 1) and otherwise
unused, so output is byte-identical for any value.

A record with negative slack would disprove the bound; the harness treats
it as a fatal internal error and dumps the witness configuration.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import bound as bound_mod
from .errors import (
    BudgetExceededError,
    InternalInvariantError,
    InvalidParametersError,
    NotProperDivisorError,
)
from .field import Field, parse_field
from .poly import parse_poly
from .rng import Xoshiro256StarStar

DEFAULT_BUDGET = 10_000_000


class ExperimentRecord(NamedTuple):
    """One measured (A, B) configuration.

    The first twelve fields are the CSV columns, in order.  ``slack`` is
    image_size minus the proved bound and is nonnegative for every valid
    instance.  The threshold columns are populated only by subfield
    experiments; ``subfield_distance``/``subfield_order`` locate the
    subfield nearest to B by symmetric difference.
    """

    field: str
    g: str
    h: str
    a: int
    b: int
    image_size: int
    theorem_bound: int
    slack: int
    proved_threshold: int | None
    conjectured_threshold: int | None
    subfield_distance: int | None
    subfield_order: int | None
    A: tuple[str, ...]
    B: tuple[str, ...]

    def to_row(self) -> list:
        return ["" if v is None else v for v in self[:12]]

    def to_dict(self) -> dict:
        out = self._asdict()
        out["A"] = list(self.A)
        out["B"] = list(self.B)
        return out


CSV_COLUMNS = ExperimentRecord._fields[:12]


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(r.to_row())
    return buf.getvalue()


def records_to_json(records) -> str:
    return json.dumps([r.to_dict() for r in records], indent=2) + "\n"


@dataclass(frozen=True)
class SearchConfig:
    """Parameters for :func:`search_extremal`.

    ``a`` and ``b`` are a single size or an inclusive (lo, hi) range.
    ``mode`` is "exhaustive" or "random"; random mode draws
    ``sample_count`` pairs per (a, b) cell from the seeded generator.
    ``budget`` caps the number of pairs the run may touch; exhaustive mode
    counts its cost as sum of binom(|pool|, a) * binom(q, b) over cells,
    where the pool is the field minus the roots of h, exactly the pairs
    it enumerates.
    ``parallelism`` must be >= 1 but is otherwise unused: evaluation is
    single-threaded.
    """

    field: str
    g: str
    h: str
    a: object
    b: object
    mode: str = "exhaustive"
    sample_count: int = 100
    seed: int = 0
    parallelism: int = 1
    budget: int = DEFAULT_BUDGET


def _size_list(v, limit: int, name: str) -> list[int]:
    """Sizes clipped to [1, limit]; an unreachable request yields an empty
    list (no valid sets of that size), not an error.  A range is clipped
    before it is built, so its upper end may be arbitrarily large."""
    if isinstance(v, int):
        if v < 1:
            raise InvalidParametersError(f"{name} sizes must be >= 1")
        lo = hi = v
    else:
        lo, hi = v
        if lo < 1 or hi < lo:
            raise InvalidParametersError(f"bad {name} range ({lo}, {hi})")
    return list(range(lo, min(hi, limit) + 1))


def _subfield_index_sets(field: Field) -> list[tuple[int, frozenset]]:
    """(order, element indices) of every subfield, from the field's cache."""
    return [(field.p ** m, frozenset(x.index() for x in field.subfield(m)))
            for m in range(1, field.n + 1) if field.n % m == 0]


def _nearest_distance(b_indices, subfield_sets) -> tuple[int, int]:
    b_set = frozenset(b_indices)
    best = None
    for order, k_set in subfield_sets:
        dist = len(b_set ^ k_set)
        if best is None or dist < best[0] or (dist == best[0] and order > best[1]):
            best = (dist, order)
    return best


def nearest_subfield_distance(B, field: Field) -> tuple[int, int]:
    """(distance, order) of the subfield minimizing the symmetric
    difference with B; ties go to the larger subfield."""
    indices = [field.element(y).index() for y in B]
    return _nearest_distance(indices, _subfield_index_sets(field))


def _sets_text(A, B) -> str:
    """'A={..} B={..}' for sequences of element strings."""
    return f"A={{{','.join(A)}}} B={{{','.join(B)}}}"


def negative_slack_error(field_s, g_s, h_s, A, B, size, tb):
    """The fatal error for an image smaller than the proved bound, naming
    the witness configuration; A and B are sequences of element strings."""
    return InternalInvariantError(
        f"negative slack {size - tb}: image_size {size} below bound {tb} "
        f"for field={field_s} g={g_s} h={h_s} {_sets_text(A, B)}")


def _measure(field: Field, g, h, tasks) -> list[ExperimentRecord]:
    """One record per (A_idx, B_idx) task of element indices, in task order.

    Value rows cover only the (x, y) pairs some task touches, so each value
    is computed once and never more values than the tasks hold; they are
    freed before the records are built, so the two never coexist.  A record
    with negative slack raises :func:`negative_slack_error`.
    """
    elements = field.elements()
    names = [str(x) for x in elements]
    field_s, g_s, h_s = str(field), str(g), str(h)
    subfield_sets = _subfield_index_sets(field)
    strings = functools.cache(lambda idx: tuple(names[i] for i in idx))
    nearest = functools.cache(lambda B: _nearest_distance(B, subfield_sets))
    bound = functools.cache(lambda a, b: bound_mod.theorem_bound(
        a, b, g.degree(), field.p).bound)

    rows = {}
    for A_idx, B_idx in tasks:
        cols = dict.fromkeys(B_idx)
        for i in A_idx:
            rows.setdefault(i, {}).update(cols)
    for i, row in rows.items():
        cols = list(row)
        row.update(zip(cols, bound_mod.value_rows(
            g, h, [elements[i]], [elements[j] for j in cols])[0]))
    sizes = [len({rows[i][j] for i in A_idx for j in B_idx})
             for A_idx, B_idx in tasks]
    del rows

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


def search_extremal(config: SearchConfig) -> list[ExperimentRecord]:
    field = parse_field(config.field)
    g = parse_poly(config.g, field)
    h = parse_poly(config.h, field)
    bound_mod.check_degrees(g, h)
    if config.mode not in ("exhaustive", "random"):
        raise InvalidParametersError(f"unknown mode {config.mode!r}")
    if config.parallelism < 1:
        raise InvalidParametersError(
            f"parallelism must be >= 1, got {config.parallelism}")
    if config.mode == "random" and config.sample_count < 1:
        raise InvalidParametersError(
            f"sample_count must be >= 1, got {config.sample_count}")

    pool_a = tuple(x.index() for x in field.elements() if not h(x).is_zero())
    q = field.order

    a_sizes = _size_list(config.a, len(pool_a), "a")
    b_sizes = _size_list(config.b, q, "b")
    cells = [(a, b) for a in a_sizes for b in b_sizes]
    if not cells:
        return []

    if config.mode == "exhaustive":
        cost = sum(math.comb(len(pool_a), a) * math.comb(q, b) for a, b in cells)
    else:
        cost = len(cells) * config.sample_count
    if cost > config.budget:
        raise BudgetExceededError(
            f"run needs {cost} pairs but the budget is {config.budget}; "
            f"narrow the ranges or switch to random mode")

    # Tasks come in tie-break order (a, b, A_idx, B_idx): exhaustive
    # enumeration is lexicographic, and random mode sorts each cell's draws.
    # So one stable sort on slack ranks the records.
    tasks = []
    rng = Xoshiro256StarStar(config.seed)
    for a, b in cells:
        if config.mode == "exhaustive":
            tasks.extend(itertools.product(itertools.combinations(pool_a, a),
                                           itertools.combinations(range(q), b)))
        else:
            cell = []
            for _ in range(config.sample_count):
                A_pos = rng.sample_indices(len(pool_a), a)
                cell.append((tuple(pool_a[i] for i in A_pos),
                             rng.sample_indices(q, b)))
            tasks.extend(sorted(cell))
    records = _measure(field, g, h, tasks)
    records.sort(key=lambda r: r.slack)
    return records


def subfield_experiment(field, m: int, c_fraction, g: str = "x^2",
                        h: str = "x", theta_count: int | None = None,
                        seed: int = 0, random_a: bool = False,
                        parallelism: int = 1) -> list[ExperimentRecord]:
    """Image growth when B is the order-p^m subfield K plus one point.

    A is ceil(c * p^m) elements of K minus {0} and the roots of h, clipped
    to what exists: the first ones in canonical order by default, or a
    seeded random subset with ``random_a``.  The first record is the
    baseline B = K; the rest sweep theta over the complement of K in
    canonical order, or over a seeded sample of ``theta_count`` of them.
    Thresholds appear only on the theta records; the baseline has nothing
    to exceed.  ``parallelism`` must be >= 1 but is otherwise unused:
    evaluation is single-threaded.
    """
    if isinstance(field, str):
        field = parse_field(field)
    if not isinstance(m, int) or m < 1 or m >= field.n or field.n % m != 0:
        raise NotProperDivisorError(
            f"m = {m} must properly divide the extension degree {field.n}")
    c = Fraction(c_fraction)
    if not 0 < c < 1:
        raise InvalidParametersError(f"c must satisfy 0 < c < 1, got {c}")
    if parallelism < 1:
        raise InvalidParametersError(f"parallelism must be >= 1, got {parallelism}")
    g_poly = parse_poly(g, field)
    h_poly = parse_poly(h, field)
    bound_mod.check_degrees(g_poly, h_poly)

    rng = Xoshiro256StarStar(seed)
    K = field.subfield(m)
    q_m = field.p ** m
    pool = [x.index() for x in K if not x.is_zero() and not h_poly(x).is_zero()]
    if not pool:
        raise InvalidParametersError("no usable subfield elements for A")
    a = min(math.ceil(c * q_m), len(pool))
    if random_a:
        A = tuple(pool[i] for i in rng.sample_indices(len(pool), a))
    else:
        A = tuple(pool[:a])

    K_idx = tuple(y.index() for y in K)
    K_set = set(K_idx)
    thetas = [i for i in range(field.order) if i not in K_set]
    if theta_count is not None:
        if not 1 <= theta_count <= len(thetas):
            raise InvalidParametersError(
                f"theta_count = {theta_count} outside [1, {len(thetas)}]")
        picks = rng.sample_indices(len(thetas), theta_count)
        thetas = [thetas[i] for i in picks]

    base, *swept = _measure(field, g_poly, h_poly, [(A, K_idx)] + [
        (A, tuple(sorted(K_idx + (theta,)))) for theta in thetas])
    proved = math.floor((1 + c / 2) * q_m - 1)
    conjectured = math.floor((1 + c) * q_m - 1)
    return [base] + [r._replace(proved_threshold=proved,
                                conjectured_threshold=conjectured)
                     for r in swept]
