"""Brute-force experiments: extremal searches and subfield sharpness runs.

:func:`search_extremal` enumerates or samples pairs (A, B), measures the
exact image size against the proved bound, and ranks the pairs by slack
ascending so near-extremal configurations surface first.

:func:`subfield_experiment` probes how far the bound is from sharp when B
is a subfield K plus one point theta outside it.  With g, h over K and A in
K minus 0 and the roots of h, f(A, K) = K, and each theta record's image is
p^m + N(A), N(A) the number of distinct (g(x), h(x)) over A.  Theta records
carry floor((1 + c/2) p^m - 1), the "proved" growth threshold, and
floor((1 + c) p^m - 1), the conjectured one; neither is raised on, and the
tests assert the proved one only for g = x^2, h = x on F_9 and F_25.
Every record carries the distance from B to the nearest subfield.

Both drivers hand one measuring kernel runs (A, Bs, cols) of element indices,
Bs a list of B's or a random draw's (B,), cols the y a run reads; no step
lists the field's elements.  The kernel checks every pair's slack, and both
drivers return its :class:`Ranked`: per pair a row id into the distinct CSV
rows and its run position, in output order, so every format and the summary
render from row ids and a record is built only where one is indexed.
Evaluation is single-threaded, as a thread pool gained nothing under the
interpreter lock: ``parallelism`` is validated (>= 1) and otherwise unused.

A pair with negative slack would disprove the bound; the harness treats
it as a fatal internal error, before any output, and names the witness.
"""

from __future__ import annotations

import bisect
import csv
import functools
import io
import itertools
import math
import operator
from array import array
from types import SimpleNamespace
from typing import NamedTuple

from . import bound as bound_mod
from .errors import InvalidParametersError
from .field import Field, parse_field
from .instance import _sets_text, check_degrees, negative_slack_error
from .poly import parse_poly

DEFAULT_BUDGET = 10_000_000
MAX_ROOT_SCAN = 2 * 10**6   # index ops, q*(deg h + 1), of the root scan before the budget gate
MAX_C_EXPONENT = 4300       # Fraction builds 10**|e| before any range check
WRITE_BLOCK = 1024          # texts per write: an unbuffered stdout makes each write a syscall


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
        return {**self._asdict(), "A": list(self.A), "B": list(self.B)}


CSV_COLUMNS = ExperimentRecord._fields[:12]


class Ranked(SimpleNamespace):
    """What :func:`search_extremal` and :func:`subfield_experiment` return: a
    read-only sequence of :class:`ExperimentRecord`, one per measured pair,
    in output order.  Indexing builds the record, and a slice the list of its
    records; compare or concatenate results as ``list(ranked)``.

    No record is kept per pair: the i-th is pair ``order[i]`` in run order
    (``starts`` numbers each run's first) and has row ``ids[i]`` of the
    distinct CSV ``rows``.  :meth:`sets` names its A and B by ``name``."""

    def __len__(self):
        return len(self.ids)

    def __repr__(self):
        return f"Ranked({len(self)} pairs, {len(self.rows)} distinct rows)"

    _lo, _hi, _Bs = 0, 0, None      # the pairs of the run sets named last, its B list

    def sets(self, i):
        """The i-th pair's (A, B) as tuples of element strings.  A run of more
        than one pair keeps its A's names and its B list's: a run's pairs
        often come in a row, and the runs of an exhaustive cell share B's."""
        k = self.order[i]
        if not self._lo <= k < self._hi:
            r = bisect.bisect_right(self.starts, k) - 1
            A_idx, Bs, _ = self.runs[r]
            if len(Bs) == 1:        # a random draw: nothing to share
                return tuple(map(self.name, A_idx)), tuple(map(self.name, Bs[0]))
            self._lo, self._hi = self.starts[r], self.starts[r + 1]
            self._A = tuple(map(self.name, A_idx))
            if Bs is not self._Bs:
                self._Bs, self._B = Bs, [None] * len(Bs)
        j = k - self._lo
        B = self._B[j] = self._B[j] or tuple(map(self.name, self._Bs[j]))
        return self._A, B

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return ExperimentRecord._make(self.rows[self.ids[i]] + self.sets(i))


def _table(records):
    """(rows, ids, sets): the distinct CSV rows, in id order, each record's
    id, and a function from a record's position to its (A, B)."""
    if isinstance(records, Ranked):
        return records.rows, records.ids, records.sets
    rows = {}       # filled by the second item, which is evaluated after the first
    return rows, [rows.setdefault(r[:12], len(rows)) for r in records], lambda i: records[i][12:]


def _write_blocks(out, texts) -> None:
    """Write the strings ``texts`` to ``out`` joined ``WRITE_BLOCK`` at a
    time: one write per block, never per text, and one block in memory."""
    texts = iter(texts)
    while block := list(itertools.islice(texts, WRITE_BLOCK)):
        out.write("".join(block))


def write_records(records, fmt: str, out) -> None:
    """Write records, a list or a :class:`Ranked`, to the text stream ``out``
    as csv, json or plain, in blocks of ``WRITE_BLOCK`` texts, one write per
    block; json is the bytes of ``json.dumps(list, indent=2)``.  Each distinct
    row renders once and a record adds only its A and B, so none is built."""
    rows, ids, sets = _table(records)
    pairs = zip(ids, map(sets, range(len(ids))))
    named = [dict(zip(CSV_COLUMNS, row)) for row in rows]
    if fmt == "csv":
        # writerow returns what write returns, here the rendered line.
        echo = SimpleNamespace(write=lambda line: line)
        render = csv.writer(echo, lineterminator="\n").writerow
        lines = [render(row) for row in rows]
        out.write(render(CSV_COLUMNS))
        _write_blocks(out, map(lines.__getitem__, ids))
    elif fmt == "json":
        import json
        quote = functools.cache(json.dumps)

        def listed(names):      # as json.dumps lays out a list in a record of a list
            return "[\n      " + ",\n      ".join(map(quote, names)) + "\n    ]" if names else "[]"

        # Each row's dict without its closing "\n}", one level deeper.
        heads = [json.dumps(r, indent=2)[:-2].replace("\n", "\n  ") for r in named]
        _write_blocks(out, ((",\n  " if i else "[\n  ") + heads[rid] + ',\n    "A": ' + listed(A)
                            + ',\n    "B": ' + listed(B) + "\n  }"
                            for i, (rid, (A, B)) in enumerate(pairs)))
        out.write("\n]\n" if ids else "[]\n")
    elif fmt == "plain":
        heads = ["slack={slack} field={field} g={g} h={h} a={a} b={b} image={image_size}"
                 " bound={theorem_bound} ".format_map(r) for r in named]
        tails = ["\n" if r["proved_threshold"] is None else
                 " proved>={proved_threshold} conjectured>={conjectured_threshold}\n".format_map(r)
                 for r in named]
        _write_blocks(out, (heads[rid] + _sets_text(A, B) + tails[rid] for rid, (A, B) in pairs))
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
    slack, a and b are read off the distinct rows, and no record is built."""
    rows, ids, sets = _table(records)
    if not rows:
        return "0 records"
    rank = operator.itemgetter(7, 3, 4)         # slack, a, b
    slack, a, b = least = min(map(rank, rows))
    is_least = [rank(row) == least for row in rows]
    A, B = min(map(sets, itertools.compress(itertools.count(), map(is_least.__getitem__, ids))))
    return f"{len(ids)} records; min slack {slack} at a={a} b={b} {_sets_text(A, B)}"


def _sizes(v, limit: int, name: str) -> range:
    """Sizes clipped to [1, limit]; an unreachable request yields an empty
    range (no valid sets of that size), not an error.  No list is built, so
    a range's upper end may be arbitrarily large."""
    lo, hi = (v, v) if isinstance(v, int) else v
    if lo < 1:
        raise InvalidParametersError(f"{name} sizes must be >= 1")
    if hi < lo:
        raise InvalidParametersError(f"bad {name} range ({lo}, {hi})")
    return range(lo, min(hi, limit) + 1)


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


def _measure(field: Field, g, h, runs, by_slack: bool = True) -> Ranked:
    """The pairs of the index runs (A_idx, Bs, cols), Bs a list or (B_idx,), ranked.

    A run touches A times its columns ``cols``, which hold every y of its
    B's, each value once.  Per run, values get dense ranks, ``col[y]`` ORs
    ``1 << rank(f(x, y))`` over x in A, and an image size is the popcount of
    the OR of B's columns: at most min(q, |A| * |cols|) bits.  Runs sharing
    a and their B's share, per B, a table from size to a row id into the
    distinct CSV rows.  A row's slack is checked as it first appears, so the
    first offender in run order raises :func:`negative_slack_error`.  Pairs
    are bucketed by slack in run order, or kept in run order without ``by_slack``.
    """
    field_s, g_s, h_s = str(field), str(g), str(h)
    name = functools.cache(lambda i: str(field.from_index(i)))
    subfield_sets = _subfield_index_sets(field)
    values = {}
    for A_idx, _, cols in runs:
        blank = dict.fromkeys(cols)
        for i in A_idx:
            values.setdefault(i, {}).update(blank)
    for i, row in values.items():
        cols = tuple(row)
        row.update(zip(cols, bound_mod.value_rows(g, h, [i], cols)[0]))

    rows, table_of, bucket_of, buckets, cell = [], {}, [], {}, None
    starts = array("I", itertools.accumulate([len(Bs) for _, Bs, _ in runs], initial=0))
    for (A_idx, Bs, cols), start in zip(runs, starts):
        value_rows = [values[i] for i in A_idx]
        rank, col = {}, {}
        for y in cols:
            mask = 0
            for row in value_rows:
                mask |= 1 << rank.setdefault(row[y], len(rank))
            col[y] = mask
        a = len(A_idx)
        if (a, Bs) != cell:         # exhaustive runs of a cell share a and B's
            cell, b_sides = (a, Bs), [(len(B_idx), *_nearest_distance(B_idx, field, subfield_sets))
                                      for B_idx in Bs]
            tables = [table_of.setdefault((a, side), {}) for side in b_sides]
        for k, B_idx, side, table in zip(itertools.count(start), Bs, b_sides, tables):
            mask = 0
            for y in B_idx:
                mask |= col[y]
            size = mask.bit_count()
            rid = table.get(size)
            if rid is None:
                b, dist, nearest = side
                tb = bound_mod.theorem_bound(a, b, g.degree(), field.p).bound
                if size < tb:
                    raise negative_slack_error(field_s, g_s, h_s, tuple(map(name, A_idx)),
                                               tuple(map(name, B_idx)), size, tb)
                rid = table[size] = len(rows)
                rows.append((field_s, g_s, h_s, a, b, size, tb, size - tb,
                             None, None, dist, nearest))
                bucket_of.append(buckets.setdefault(size - tb if by_slack else 0, array("I")))
            bucket = bucket_of[rid]
            bucket.append(k)
            bucket.append(rid)
    ranked = array("I")                         # pair, row, pair, row, ...
    for slack in sorted(buckets):
        ranked += buckets[slack]
    return Ranked(rows=rows, ids=ranked[1::2], order=ranked[::2], starts=starts,
                  runs=runs, name=name)


def search_extremal(field, g: str, h: str, a, b, mode: str = "exhaustive",
                    sample_count: int = 100, seed: int = 0, parallelism: int = 1,
                    budget: int = DEFAULT_BUDGET) -> Ranked:
    """The pairs (A, B) of ``field``, a :class:`Field` or its text, under the
    polynomial texts ``g`` and ``h``, as a :class:`Ranked` by slack ascending.

    ``a`` and ``b`` are a single size or an inclusive (lo, hi) range.
    ``mode`` is "exhaustive" or "random"; random mode draws
    ``sample_count`` pairs per (a, b) cell from the generator seeded with
    ``seed``.  ``budget`` caps the work of the run in value evaluations:
    every pair costs a * b, in both modes.  Exhaustive mode prices the sum
    of a * b * binom(|pool|, a) * binom(q, b) over cells, where the pool is
    the field minus the roots of h, exactly the pairs it enumerates; random
    mode prices sample_count * a * b per cell.  As b * binom(q, b) >= q, an
    exhaustive cell's price covers its column pass, binom(|pool|, a) * a * q
    evaluations, and in both modes a pair's price covers its b mask ORs.
    No price lists the cells or computes a binomial sure to pass the budget
    ("more than" it).
    The roots of h come from a scan of all q indices, refused over
    ``MAX_ROOT_SCAN`` index operations; a constant h has none and needs no
    scan, so a random search runs on any field :func:`parse_field` accepts.
    ``parallelism`` must be >= 1 but is otherwise unused: evaluation is
    single-threaded.
    """
    if isinstance(field, str):
        field = parse_field(field)
    g = parse_poly(g, field)
    h = parse_poly(h, field)
    check_degrees(g, h)
    if mode not in ("exhaustive", "random"):
        raise InvalidParametersError(f"unknown mode {mode!r}")
    if parallelism < 1:
        raise InvalidParametersError(f"parallelism must be >= 1, got {parallelism}")
    if mode == "random" and sample_count < 1:
        raise InvalidParametersError(f"sample_count must be >= 1, got {sample_count}")

    q = field.order
    if h.degree():
        scan = q * (h.degree() + 1)
        if scan > MAX_ROOT_SCAN:
            raise InvalidParametersError(
                f"the scan for the roots of h needs q*(deg h + 1) = {q}*({h.degree()} + 1) = "
                f"{scan} index operations, more than {MAX_ROOT_SCAN}")
        pool_a = tuple(i for i in range(q) if h.at_index(i))
    else:
        pool_a = range(q)
    a_sizes = _sizes(a, len(pool_a), "a")
    b_sizes = _sizes(b, q, "b")

    # A sum over the cells (a, b) of a product is the product of two sums.
    # k * binom(n, k) >= 2**min(k, n - k): past the budget's bits, none is computed.
    if mode == "exhaustive":
        sizes = ((len(pool_a), a_sizes), (q, b_sizes))
        sums = [None if any(min(k, n - k) >= budget.bit_length() for k in r)
                else sum(k * math.comb(n, k) for k in r) for n, r in sizes]
        advice = "narrow the ranges or switch to random mode"
    else:
        sums = [sample_count] + [(r.start + r.stop - 1) * len(r) // 2 for r in (a_sizes, b_sizes)]
        advice = "narrow the ranges or draw fewer samples"
    cost = 0 if 0 in sums else None if None in sums else math.prod(sums)
    if cost is None or cost > budget:
        raise InvalidParametersError(f"run needs {f'more than {budget}' if cost is None else cost}"
                                     f" value evaluations but the budget is {budget}; {advice}")

    # Runs come in tie-break order (a, b, A_idx, B_idx): exhaustive runs are
    # lexicographic and read every index, random runs are a cell's sorted
    # draws, each reading its own B.  So bucketing by slack in run order ranks pairs.
    runs, cells = [], itertools.product(a_sizes, b_sizes)
    if mode == "exhaustive":
        for a, b in cells:
            Bs = list(itertools.combinations(range(q), b))
            runs.extend((A, Bs, range(q)) for A in itertools.combinations(pool_a, a))
    else:
        from .rng import Xoshiro256StarStar     # an exhaustive search draws nothing
        rng = Xoshiro256StarStar(seed)
        for a, b in cells:
            cell = []
            for _ in range(sample_count):
                A_pos = rng.sample_indices(len(pool_a), a)
                cell.append((tuple(pool_a[i] for i in A_pos), rng.sample_indices(q, b)))
            runs.extend((A, (B,), B) for A, B in sorted(cell))
    return _measure(field, g, h, runs)


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
    to exceed.  ``parallelism`` must be >= 1 but is otherwise unused:
    evaluation is single-threaded.
    """
    if isinstance(field, str):
        field = parse_field(field)
    if not isinstance(m, int) or m < 1 or m >= field.n or field.n % m != 0:
        raise InvalidParametersError(
            f"m = {m} must properly divide the extension degree {field.n}")
    c = parse_c(c_fraction)
    if not 0 < c < 1:
        # c_fraction as given: a huge c may have too many digits to print
        raise InvalidParametersError(f"c must satisfy 0 < c < 1, got {c_fraction}")
    if parallelism < 1:
        raise InvalidParametersError(f"parallelism must be >= 1, got {parallelism}")
    g_poly = parse_poly(g, field)
    h_poly = parse_poly(h, field)
    check_degrees(g_poly, h_poly)

    from .rng import Xoshiro256StarStar
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

    Bs = [K_idx] + [tuple(sorted(K_idx + (theta,))) for theta in thetas]
    ranked = _measure(field, g_poly, h_poly, [(A, Bs, K_idx + tuple(thetas))], by_slack=False)
    # Row 0 is the baseline's, the first pair's, and no other: theta's B has p^m + 1.
    thresholds = (math.floor((1 + c / 2) * q_m - 1), math.floor((1 + c) * q_m - 1))
    ranked.rows[1:] = [row[:8] + thresholds + row[10:] for row in ranked.rows[1:]]
    return ranked
