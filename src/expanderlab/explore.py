"""Brute-force experiments: extremal searches and subfield sharpness runs.

Two drivers share one record format, which :func:`write_records` renders.

:func:`search_extremal` enumerates or samples pairs (A, B), measures the
exact image size against the proved bound, and returns the records sorted
by slack ascending so near-extremal configurations surface first.

:func:`subfield_experiment` probes how far the bound is from sharp when B
is a subfield K plus one external point.  With coefficients of g and h in
K and A inside K minus the roots of h, the image over B = K stays inside
K (no growth); appending one point theta forces growth.  Each record
carries the proved growth threshold floor((1 + c/2) p^m - 1), the
conjectured one floor((1 + c) p^m - 1) which is reported but never
asserted, and the distance from B to the nearest subfield, where only
the subfields strictly between F_p and the field need index sets.

Both drivers hand one measuring path runs (A, [B, ...], cols) of element
indices, cols being the y a run reads (every index, a drawn B, or K and the
thetas), and no step lists the field's elements: value rows from
:func:`bound.value_rows` (the indices of f = g(x) + y*h(x)) over only A x cols,
image sizes as popcounts of OR-ed bit masks of ranked values, one
negative-slack check, records in run order.  Both drivers run in one thread,
since a thread pool gained nothing under the interpreter lock;
``parallelism`` is validated (>= 1) and otherwise unused: output is the
same for any value.

A record with negative slack would disprove the bound; the harness treats
it as a fatal internal error and dumps the witness configuration.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from types import SimpleNamespace
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
MAX_SEARCH_ORDER = 10**6    # search scans every index for roots of h before its budget gate
MAX_C_EXPONENT = 4300       # Fraction builds 10**|e| before any range check


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

    def to_dict(self) -> dict:
        out = self._asdict()
        out["A"] = list(self.A)
        out["B"] = list(self.B)
        return out


CSV_COLUMNS = ExperimentRecord._fields[:12]


def write_records(records, fmt: str, out) -> None:
    """Write records to the text stream ``out`` as csv, json or plain, one
    record at a time for csv and plain (json is one document).  csv writes
    None as an empty cell."""
    if fmt == "csv":
        # writerow returns what write returns, here the rendered line; rows
        # repeat (search varies only in a few integer cells), so each
        # distinct row is rendered once.
        echo = SimpleNamespace(write=lambda line: line)
        render = csv.writer(echo, lineterminator="\n").writerow
        lines = {}
        out.write(render(CSV_COLUMNS))
        for r in records:
            cells = r[:12]
            out.write(lines.get(cells) or lines.setdefault(cells, render(cells)))
    elif fmt == "json":
        import json
        out.write(json.dumps([r.to_dict() for r in records], indent=2) + "\n")
    elif fmt == "plain":
        for r in records:
            extra = ("" if r.proved_threshold is None else
                     f" proved>={r.proved_threshold}"
                     f" conjectured>={r.conjectured_threshold}")
            out.write(f"slack={r.slack} field={r.field} g={r.g} h={r.h} a={r.a}"
                      f" b={r.b} image={r.image_size} bound={r.theorem_bound}"
                      f" {_sets_text(r.A, r.B)}{extra}\n")
    else:
        raise InvalidParametersError(f"unknown format {fmt!r}")


def records_to_csv(records) -> str:
    buf = io.StringIO()
    write_records(records, "csv", buf)
    return buf.getvalue()


def records_to_json(records) -> str:
    buf = io.StringIO()
    write_records(records, "json", buf)
    return buf.getvalue()


def summarize(records) -> str:
    """The stderr summary: the record count and the best record, the least
    by (slack, a, b, A, B) with A and B compared as tuples of element
    strings, so ties need not fall on the first record in output order;
    only the records of least slack are keyed."""
    if not records:
        return "0 records"
    least = min(r.slack for r in records)
    best = min((r for r in records if r.slack == least),
               key=lambda r: (r.a, r.b, r.A, r.B))
    return (f"{len(records)} records; min slack {best.slack} at a={best.a}"
            f" b={best.b} {_sets_text(best.A, best.B)}")


class SearchConfig(NamedTuple):
    """Parameters for :func:`search_extremal`.

    ``a`` and ``b`` are a single size or an inclusive (lo, hi) range.
    ``mode`` is "exhaustive" or "random"; random mode draws
    ``sample_count`` pairs per (a, b) cell from the seeded generator.
    ``budget`` caps the work of the run.  Exhaustive mode counts pairs, the
    sum of binom(|pool|, a) * binom(q, b) over cells, where the pool is the
    field minus the roots of h, exactly the pairs it enumerates.  Random
    mode counts value evaluations, sample_count * a * b per cell, since
    each sampled pair evaluates up to a * b values.
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
    """(order, element indices) of every subfield strictly between F_p and
    the field; none for a prime field or a prime-degree extension."""
    return [(field.p ** m, frozenset(x.index() for x in field.subfield(m)))
            for m in range(2, field.n) if field.n % m == 0]


def _nearest_distance(b_indices, field: Field, subfield_sets) -> tuple[int, int]:
    # |B ^ K| = |B| + |K| - 2|B & K|; & walks the smaller set, not the field.
    # The whole field contains B, and F_p is its first p indices.
    b_set, p = frozenset(b_indices), field.p
    shared = [(field.order, len(b_set)), (p, sum(i < p for i in b_set))]
    shared += [(order, len(b_set & k_set)) for order, k_set in subfield_sets]
    dist, neg_order = min((len(b_set) + order - 2 * common, -order)
                          for order, common in shared)
    return dist, -neg_order


def nearest_subfield_distance(B, field: Field) -> tuple[int, int]:
    """(distance, order) of the subfield minimizing the symmetric
    difference with B; ties go to the larger subfield."""
    indices = [field.element(y).index() for y in B]
    return _nearest_distance(indices, field, _subfield_index_sets(field))


def _sets_text(A, B) -> str:
    """'A={..} B={..}' for sequences of element strings."""
    return f"A={{{','.join(A)}}} B={{{','.join(B)}}}"


def negative_slack_error(field_s, g_s, h_s, A, B, size, tb):
    """The fatal error for an image smaller than the proved bound, naming
    the witness configuration; A and B are sequences of element strings."""
    return InternalInvariantError(
        f"negative slack {size - tb}: image_size {size} below bound {tb} "
        f"for field={field_s} g={g_s} h={h_s} {_sets_text(A, B)}")


def _measure(field: Field, g, h, runs) -> list[ExperimentRecord]:
    """One record per pair of the index runs (A_idx, [B_idx, ...], cols), in order.

    A run touches A times its columns ``cols``, which hold every y of its
    B's, each value once.  Per run, values get dense ranks, ``col[y]`` ORs
    ``1 << rank(f(x, y))`` over x in A, and an image size is the popcount of
    the OR of B's columns: at most min(q, |A| * |cols|) bits.  Sizes are
    taken, and values freed, before records are built; names are rendered
    with ``field.from_index`` only for the indices in some A or column.  A
    record with negative slack raises :func:`negative_slack_error`.
    """
    field_s, g_s, h_s = str(field), str(g), str(h)
    subfield_sets = _subfield_index_sets(field)
    values = {}
    for A_idx, _, cols in runs:
        blank = dict.fromkeys(cols)
        for i in A_idx:
            values.setdefault(i, {}).update(blank)
    for i, row in values.items():
        cols = tuple(row)
        row.update(zip(cols, bound_mod.value_rows(g, h, [i], cols)[0]))

    sizes = []
    for A_idx, Bs, cols in runs:
        rows = [values[i] for i in A_idx]
        rank, col = {}, {}
        for y in cols:
            mask = 0
            for row in rows:
                mask |= 1 << rank.setdefault(row[y], len(rank))
            col[y] = mask
        for B_idx in Bs:
            mask = 0
            for y in B_idx:
                mask |= col[y]
            sizes.append(mask.bit_count())
    del values

    touched = set().union(*(A for A, _, _ in runs), *(cols for _, _, cols in runs))
    names = {i: str(field.from_index(i)) for i in touched}
    bounds, b_sides, records, sizes = {}, {}, [], iter(sizes)
    record = ExperimentRecord._make
    for A_idx, Bs, _ in runs:
        a, A_s = len(A_idx), tuple(names[i] for i in A_idx)
        for B_idx, size in zip(Bs, sizes):
            b, dist, order, B_s = b_sides.get(B_idx) or b_sides.setdefault(
                B_idx, (len(B_idx), *_nearest_distance(B_idx, field, subfield_sets),
                        tuple(names[j] for j in B_idx)))
            tb = bounds.get((a, b)) or bounds.setdefault(
                (a, b), bound_mod.theorem_bound(a, b, g.degree(), field.p).bound)
            if size < tb:
                raise negative_slack_error(field_s, g_s, h_s, A_s, B_s, size, tb)
            records.append(record((field_s, g_s, h_s, a, b, size, tb, size - tb,
                                   None, None, dist, order, A_s, B_s)))
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

    q = field.order
    if q > MAX_SEARCH_ORDER:
        raise InvalidParametersError(
            f"search needs a field of at most {MAX_SEARCH_ORDER} elements, got {q}")
    pool_a = tuple(i for i in range(q) if h.at_index(i))

    a_sizes = _size_list(config.a, len(pool_a), "a")
    b_sizes = _size_list(config.b, q, "b")
    cells = [(a, b) for a in a_sizes for b in b_sizes]
    if not cells:
        return []

    if config.mode == "exhaustive":
        cost = sum(math.comb(len(pool_a), a) * math.comb(q, b) for a, b in cells)
        unit, advice = "pairs", "narrow the ranges or switch to random mode"
    else:
        cost = sum(config.sample_count * a * b for a, b in cells)
        unit, advice = "value evaluations", "narrow the ranges or draw fewer samples"
    if cost > config.budget:
        raise BudgetExceededError(
            f"run needs {cost} {unit} but the budget is {config.budget}; {advice}")

    # Runs come in tie-break order (a, b, A_idx, B_idx): exhaustive runs are
    # lexicographic and read every index, random runs are a cell's sorted
    # draws, each reading its own B.  So one stable sort on slack ranks records.
    runs = []
    rng = Xoshiro256StarStar(config.seed)
    for a, b in cells:
        if config.mode == "exhaustive":
            Bs = list(itertools.combinations(range(q), b))
            runs.extend((A, Bs, range(q)) for A in itertools.combinations(pool_a, a))
        else:
            cell = []
            for _ in range(config.sample_count):
                A_pos = rng.sample_indices(len(pool_a), a)
                cell.append((tuple(pool_a[i] for i in A_pos),
                             rng.sample_indices(q, b)))
            runs.extend((A, [B], B) for A, B in sorted(cell))
    records = _measure(field, g, h, runs)
    records.sort(key=lambda r: r.slack)
    return records


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
    c = parse_c(c_fraction)
    if not 0 < c < 1:
        # c_fraction as given: a huge c may have too many digits to print
        raise InvalidParametersError(f"c must satisfy 0 < c < 1, got {c_fraction}")
    if parallelism < 1:
        raise InvalidParametersError(f"parallelism must be >= 1, got {parallelism}")
    g_poly = parse_poly(g, field)
    h_poly = parse_poly(h, field)
    bound_mod.check_degrees(g_poly, h_poly)

    rng = Xoshiro256StarStar(seed)
    q_m = field.p ** m
    K_idx = tuple(y.index() for y in field.subfield(m))
    pool = [i for i in K_idx if i and h_poly.at_index(i)]
    if not pool:
        raise InvalidParametersError("no usable subfield elements for A")
    a = min(math.ceil(c * q_m), len(pool))
    if random_a:
        A = tuple(pool[i] for i in rng.sample_indices(len(pool), a))
    else:
        A = tuple(pool[:a])

    K_set = set(K_idx)
    thetas = [i for i in range(field.order) if i not in K_set]
    if theta_count is not None:
        if not 1 <= theta_count <= len(thetas):
            raise InvalidParametersError(
                f"theta_count = {theta_count} outside [1, {len(thetas)}]")
        picks = rng.sample_indices(len(thetas), theta_count)
        thetas = [thetas[i] for i in picks]

    base, *swept = _measure(field, g_poly, h_poly, [(A, [K_idx] + [
        tuple(sorted(K_idx + (theta,))) for theta in thetas], K_idx + tuple(thetas))])
    proved = math.floor((1 + c / 2) * q_m - 1)
    conjectured = math.floor((1 + c) * q_m - 1)
    return [base] + [r._replace(proved_threshold=proved,
                                conjectured_threshold=conjectured)
                     for r in swept]
