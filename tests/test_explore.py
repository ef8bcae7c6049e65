import collections
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab import explore
from expanderlab import extension as extension_module
from expanderlab.bound import check_instance, image, theorem_bound
from expanderlab.errors import (
    BudgetExceededError,
    InternalInvariantError,
    InvalidParametersError,
    NotProperDivisorError,
)
from expanderlab.explore import (
    CSV_COLUMNS,
    MAX_C_EXPONENT,
    ExperimentRecord,
    nearest_subfield_distance,
    records_to_csv,
    records_to_json,
    search_extremal,
    subfield_experiment,
    write_records,
)
from expanderlab.field import Field, FieldElem, parse_field
from expanderlab.poly import parse_poly
from expanderlab.rng import Xoshiro256StarStar, splitmix64

from oracles import (
    frobenius_subfield,
    hopf_stiefel,
    image_double_loop,
    measure_int_sets,
    plain_line,
)


# -- rng ------------------------------------------------------------------------


def _reference_stream(seed, count):
    # Independent reimplementation: the four state words live in one
    # 256-bit integer instead of a list, and splitmix is inlined.
    mask = (1 << 64) - 1
    state = seed
    packed = 0
    for i in range(4):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        packed |= (z ^ (z >> 31)) << (64 * i)
    out = []
    for _ in range(count):
        w = [(packed >> (64 * i)) & mask for i in range(4)]
        r = (w[1] * 5) & mask
        r = (((r << 7) | (r >> 57)) & mask) * 9 & mask
        out.append(r)
        t = (w[1] << 17) & mask
        w[2] ^= w[0]
        w[3] ^= w[1]
        w[1] ^= w[2]
        w[0] ^= w[3]
        w[2] ^= t
        w[3] = ((w[3] << 45) | (w[3] >> 19)) & mask
        packed = sum(w[i] << (64 * i) for i in range(4))
    return out


def test_xoshiro_frozen_outputs():
    rng = Xoshiro256StarStar(0)
    assert [rng.next_u64() for _ in range(5)] == [
        0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0,
        0x6AA594F1262D2D2C, 0xBBA5AD4A1F842E59]
    rng = Xoshiro256StarStar(42)
    assert [rng.next_u64() for _ in range(5)] == [
        0x15780B2E0C2EC716, 0x6104D9866D113A7E, 0xAE17533239E499A1,
        0xECB8AD4703B360A1, 0xFDE6DC7FE2EC5E64]


def test_xoshiro_matches_independent_reimplementation():
    for seed in (0, 1, 42, 2**63, 987654321):
        rng = Xoshiro256StarStar(seed)
        assert [rng.next_u64() for _ in range(50)] == _reference_stream(seed, 50)


def test_splitmix_step():
    state, out = splitmix64(0)
    assert state == 0x9E3779B97F4A7C15
    assert out == 0xE220A8397B1DCDAF


def test_bounded_range_and_determinism():
    rng = Xoshiro256StarStar(7)
    values = [rng.bounded(10) for _ in range(200)]
    assert all(0 <= v < 10 for v in values)
    assert set(values) == set(range(10))
    rng2 = Xoshiro256StarStar(7)
    assert values == [rng2.bounded(10) for _ in range(200)]
    with pytest.raises(InvalidParametersError):
        rng.bounded(0)


def test_sample_indices_properties():
    rng = Xoshiro256StarStar(11)
    for m, count in ((10, 3), (100, 10), (5, 5), (7, 0), (1, 1)):
        picks = rng.sample_indices(m, count)
        assert len(picks) == count
        assert len(set(picks)) == count
        assert list(picks) == sorted(picks)
        assert all(0 <= i < m for i in picks)
    assert Xoshiro256StarStar(3).sample_indices(6, 6) == tuple(range(6))
    with pytest.raises(InvalidParametersError):
        rng.sample_indices(3, 4)
    with pytest.raises(InvalidParametersError):
        Xoshiro256StarStar(-1)


# -- records --------------------------------------------------------------------


def test_csv_schema_and_none_rendering():
    recs = search_extremal("5", "x^2", "x", 2, 2)
    text = records_to_csv(recs)
    lines = text.split("\n")
    assert CSV_COLUMNS == ExperimentRecord._fields[:12]
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == ("field,g,h,a,b,image_size,theorem_bound,slack,"
                        "proved_threshold,conjectured_threshold,"
                        "subfield_distance,subfield_order")
    # search records carry no thresholds; the empty cells stay empty.
    first = lines[1].split(",")
    assert first[8] == "" and first[9] == ""
    assert text.endswith("\n")


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.texts = []

    @property
    def writes(self):
        return len(self.texts)

    def write(self, text):
        self.texts.append(text)
        return super().write(text)


# Search records without thresholds, then subfield records with them.
_MIXED = (search_extremal("5", "x^2", "x", 2, 2)[:4]
          + subfield_experiment("3^2", 1, "1/2")[:3])


def _unblocked(records, fmt):
    """The reference bytes, one record at a time: a csv writer, json.dumps
    of the records' dicts, or one f-string per record."""
    if fmt == "json":
        return json.dumps([r.to_dict() for r in records], indent=2) + "\n"
    if fmt == "plain":
        return "".join(map(plain_line, records))
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(r[:12] for r in records)
    return ref.getvalue()


def _render(records, fmt):
    stream = io.StringIO()
    write_records(records, fmt, stream)
    return stream.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "plain", "json"])
def test_records_are_written_as_they_render(monkeypatch, fmt):
    # Records are joined WRITE_BLOCK texts per write, never one write per
    # line: the header (csv) and the close (json) are one write each.
    monkeypatch.setattr(explore, "WRITE_BLOCK", 3)
    for n in (0, 1, 3, 4, 7):
        stream = _CountingStream()
        write_records(_MIXED[:n], fmt, stream)
        assert stream.getvalue() == _unblocked(_MIXED[:n], fmt)
        assert stream.writes == math.ceil(n / 3) + (fmt != "plain")
        # No write carries more than a block of record texts.
        per_write = [t.count("\n  {") if fmt == "json" else t.count("\n")
                     for t in stream.texts]
        assert max(per_write, default=0) <= 3 and sum(per_write) == n + (fmt == "csv")


def test_json_is_streamed_as_the_bytes_of_one_document():
    ranked = search_extremal("2^3", "x^2", "x", (1, 2), (1, 2))
    stream = _CountingStream()
    write_records(ranked, "json", stream)
    assert stream.writes == math.ceil(len(ranked) / explore.WRITE_BLOCK) + 1 == 2
    assert stream.getvalue() == json.dumps([r.to_dict() for r in ranked], indent=2) + "\n"
    empty = search_extremal("5", "x^2", "x", 9, 2)
    assert records_to_json([]) == records_to_json(empty) == "[]\n"


# Names that JSON escapes (a quote, a backslash, a control character, a
# character outside ASCII), and empty sets, which json.dumps writes as [].
_ESCAPED = ExperimentRecord('GF(3, "t")', "x\\2", "x\t", 3, 1, 3, 2, 1, 4, 5, None, None,
                            ('"a"', "b\\", "\n"), ("\u00e9",))
_HAND_BUILT = [_ESCAPED, _ESCAPED._replace(A=()), _ESCAPED._replace(B=()),
               _ESCAPED._replace(A=(), B=(), proved_threshold=None)]


@st.composite
def _measured(draw):
    """A small ranked search, exhaustive or random, or a subfield run."""
    kind = draw(st.sampled_from(["exhaustive", "random", "subfield"]))
    if kind == "subfield":
        field_s, m = draw(st.sampled_from([("3^2", 1), ("2^4", 2), ("2^6", 3), ("5^2", 1)]))
        return subfield_experiment(field_s, m, draw(st.sampled_from(["1/3", "1/2", "4/5"])),
                                   random_a=draw(st.booleans()), seed=draw(st.integers(0, 9)))
    g, h = draw(st.sampled_from([("x^2", "x"), ("x^3", "x+1"), ("x", "1")]))
    if kind == "exhaustive":
        return search_extremal(
            draw(st.sampled_from(["5", "7", "2^3", "3^2"])), g, h,
            (1, draw(st.integers(1, 2))), (1, draw(st.integers(1, 2))))
    return search_extremal(
        draw(st.sampled_from(["11", "31", "2^4", "5^2"])), g, h, (1, 3), (1, 3),
        mode="random", sample_count=draw(st.integers(1, 20)), seed=draw(st.integers(0, 99)))


@settings(max_examples=40, deadline=None)
@given(ranked=_measured(), hand=st.lists(st.sampled_from(_HAND_BUILT), max_size=4),
       data=st.data())
def test_json_and_plain_bytes_match_the_per_record_reference(ranked, hand, data):
    # A Ranked and its list render alike; hand-built records go in anywhere.
    records = list(ranked)
    for fmt in ("json", "plain"):
        assert _render(ranked, fmt) == _render(records, fmt) == _unblocked(records, fmt)
    at = data.draw(st.integers(0, len(records)))
    records[at:at] = hand
    for fmt in ("json", "plain"):
        assert _render(records, fmt) == _unblocked(records, fmt)


@settings(max_examples=40, deadline=None)
@given(ranked=_measured(), data=st.data())
def test_ranked_is_a_read_only_sequence_of_its_records(ranked, data):
    # Indexing and slicing build records from the distinct rows, in any
    # order, as the list of the records does; there is no __eq__.
    records = list(ranked)
    n = len(records)
    assert len(ranked) == n and ranked != records
    assert repr(ranked) == f"Ranked({n} pairs, {len(ranked.rows)} distinct rows)"
    assert (ranked[0], ranked[-1]) == (records[0], records[-1])
    bound = st.none() | st.integers(-n - 2, n + 2)
    step = st.none() | st.integers(-4, 4).filter(bool)
    for _ in range(3):
        cut = slice(data.draw(bound), data.draw(bound), data.draw(step))
        assert ranked[cut] == records[cut]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            ranked[i]


def test_json_dumps_with_indent_runs_once_per_distinct_row(monkeypatch):
    # search-exhaustive's 22,308 pairs have 7 distinct rows; only A and B
    # are rendered per pair, through the C encoder.
    ranked = search_extremal("13", "x^2", "x", (2, 3), 2)
    dumps, indented = json.dumps, []

    def counting(obj, **kwargs):
        indented.append("indent" in kwargs)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    text = _render(ranked, "json")
    monkeypatch.undo()
    assert (len(ranked), len(ranked.rows), sum(indented)) == (22308, 7, 7)
    assert repr(ranked) == "Ranked(22308 pairs, 7 distinct rows)"
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == "42b6a0c133ff"


@pytest.mark.parametrize("field_s", ["7", "11", "2^3", "3^2"])
def test_sumset_minimum_is_the_bound(field_s):
    # g = x, h = 1: f(A, B) = A + B, whose least size is the Hopf-Stiefel
    # number (Eliahou and Kervaire), and the bound reaches it in every cell.
    # On a prime field with 2 <= a, b and a + b <= p - 1 the minimizers are
    # the pairs of arithmetic progressions with one common difference
    # (Vosper's theorem): p^2 (p - 1) / 2 of them.
    ranked = search_extremal(field_s, "x", "1", (1, 3), (1, 3))
    field = parse_field(field_s)
    p = field.p
    counts = collections.Counter(ranked.rows[rid][3:6] for rid in ranked.ids)   # a, b, size
    for a, b in itertools.product(range(1, 4), repeat=2):
        least = min(size for a_, b_, size in counts if (a_, b_) == (a, b))
        assert least == hopf_stiefel(p, a, b) == theorem_bound(a, b, 1, p).bound
        if field.n == 1 and 2 <= min(a, b) and a + b <= p - 1:
            assert counts[a, b, least] == p * p * (p - 1) // 2


@pytest.mark.parametrize("ranked", [
    pytest.param(lambda: search_extremal("17", "x^2", "x", 2, 1),
                 id="element-string-ties"),
    pytest.param(lambda: search_extremal("2^3", "x^2", "x", (1, 3), (1, 2)),
                 id="extension-search"),
    pytest.param(lambda: search_extremal(
        "31", "x^3", "x+1", (2, 4), (1, 3), mode="random", sample_count=40, seed=3),
                 id="random-search"),
    pytest.param(lambda: subfield_experiment("3^4", 2, "2/3", g="x^4", h="x^2"),
                 id="subfield"),
    # Least slack at several sizes, the smallest sizes with the largest strings.
    pytest.param(lambda: [ExperimentRecord("F_13", "x^2", "x", a, b, 9, 9 - slack, slack,
                                           None, None, 0, 13, A, ("0",) * b)
                          for slack, a, b, A in [(1, 1, 1, ("0",)), (0, 3, 1, ("1", "2", "3")),
                                                 (0, 2, 2, ("1", "2")), (0, 2, 1, ("7", "8")),
                                                 (0, 2, 1, ("5", "9"))]],
                 id="sizes-before-element-strings"),
])
def test_summary_is_the_least_record_by_slack_a_b_and_sets(ranked):
    ranked = ranked()
    best = min(ranked, key=lambda r: (r.slack, r.a, r.b, r.A, r.B))
    line = (f"{len(ranked)} records; min slack {best.slack} at a={best.a} b={best.b}"
            f" A={{{','.join(best.A)}}} B={{{','.join(best.B)}}}")
    assert explore.summarize(ranked) == explore.summarize(list(ranked)) == line


def test_csv_line_cache_matches_a_plain_writer():
    # Text cells that need quoting, None cells, and rows that repeat (also
    # with other A and B, which csv leaves out) or differ in one cell.
    base = ExperimentRecord('GF(3, "t")\nx', "x^2, q", 'x\r\n"+1', 2, 3, 5, 4, 1,
                            None, None, 0, 13, ("1", "2"), ("0",))
    recs = [base, base._replace(slack=2), base, base._replace(A=("5",)),
            base._replace(proved_threshold=7), base._replace(g=""),
            base._replace(subfield_order=9),
            base._replace(subfield_distance=None, subfield_order=None), base]
    out = io.StringIO()
    write_records(recs, "csv", out)
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(r[:12] for r in recs)
    assert out.getvalue() == ref.getvalue()


def test_unknown_format_writes_nothing():
    stream = io.StringIO()
    with pytest.raises(InvalidParametersError, match="unknown format 'xml'"):
        write_records(search_extremal("5", "x^2", "x", 2, 2), "xml", stream)
    assert stream.getvalue() == ""


def test_json_mirror_includes_sets():
    recs = search_extremal("5", "x^2", "x", 2, 2)
    data = json.loads(records_to_json(recs))
    assert len(data) == len(recs)
    row = data[0]
    for col in CSV_COLUMNS:
        assert col in row
    assert row["A"] == list(recs[0].A)
    assert row["B"] == list(recs[0].B)
    assert row["proved_threshold"] is None


# -- search ---------------------------------------------------------------------


def test_search_exhaustive_f5_frozen():
    recs = search_extremal("5", "x^2", "x", 2, 2)
    # 4 usable x values (0 is a root of h), all 2-subsets of F_5 for B.
    assert len(recs) == math.comb(4, 2) * math.comb(5, 2)
    assert all(r.theorem_bound == 2 for r in recs)
    assert all(r.slack >= 0 for r in recs)
    slacks = [r.slack for r in recs]
    assert slacks == sorted(slacks)
    # Image size 2 happens exactly for A = {x, -x}, B = {y, -y}.
    zero_slack = [r for r in recs if r.slack == 0]
    assert len(zero_slack) == 4
    assert recs[0].A == ("1", "4") and recs[0].B == ("1", "4")
    assert recs[0].image_size == 2
    assert recs[0].proved_threshold is None
    assert recs[0].subfield_order == 5      # prime field: only itself


def test_search_deterministic_across_worker_counts():
    base = None
    for workers in (1, 2, 8):
        text = records_to_csv(search_extremal("5", "x^2", "x", (1, 3), (1, 2),
                                              parallelism=workers))
        if base is None:
            base = text
        assert text == base
    assert base.count("\n") == 1 + sum(
        math.comb(4, a) * math.comb(5, b) for a in (1, 2, 3) for b in (1, 2))


def test_both_drivers_take_a_field_or_its_text():
    F13, F9 = parse_field("13"), parse_field("3^2")
    assert list(search_extremal(F13, "x^2", "x", 2, 2)) == list(
        search_extremal("13", "x^2", "x", 2, 2))
    assert list(subfield_experiment(F9, 1, "1/2")) == list(subfield_experiment("3^2", 1, "1/2"))


def test_search_random_mode_deterministic():
    cfg = dict(field="7", g="x^3", h="x+1", a=(1, 4), b=2,
               mode="random", sample_count=25, seed=5)
    one = records_to_csv(search_extremal(**cfg, parallelism=1))
    two = records_to_csv(search_extremal(**cfg, parallelism=2))
    assert one == two
    other_seed = records_to_csv(search_extremal(**{**cfg, "seed": 6}))
    assert other_seed != one


def test_search_random_mode_counts():
    recs = search_extremal("7", "x^2", "x", 2, (1, 3), mode="random", sample_count=10, seed=1)
    assert len(recs) == 3 * 10
    assert all(r.a == 2 for r in recs)
    assert sorted({r.b for r in recs}) == [1, 2, 3]


def test_search_extension_field_subfield_columns():
    recs = search_extremal("2^2", "x^2", "1", 2, (1, 2))
    assert recs
    for r in recs:
        assert r.subfield_order in (2, 4)
        assert r.subfield_distance is not None
    # A record whose B is exactly the prime subfield has distance zero.
    f4 = Field(2, 2)
    prime_sub = tuple(str(y) for y in f4.subfield(1))
    exact = [r for r in recs if r.B == prime_sub]
    assert exact and all(r.subfield_distance == 0 and r.subfield_order == 2
                         for r in exact)


def test_search_budget_gate():
    with pytest.raises(BudgetExceededError):
        search_extremal("13", "x^2", "x", 6, 6, budget=1000)
    with pytest.raises(BudgetExceededError):
        search_extremal("5", "x^2", "x", 2, 2, mode="random", sample_count=50, budget=10)


def test_search_random_budget_counts_value_evaluations():
    # Each sample evaluates up to a*b values: 5 * 2*2 + 5 * 2*3 = 50.
    config = dict(field="5", g="x^2", h="x", a=2, b=(2, 3), mode="random", sample_count=5)
    with pytest.raises(BudgetExceededError, match="needs 50 value evaluations"):
        search_extremal(**config, budget=49)
    assert len(search_extremal(**config, budget=50)) == 10


def test_search_budget_prices_the_usable_pool():
    # h = x removes 0 from A's pool: a = 12 leaves one A and 13 choices of
    # B, so 13 pairs run; binom(q, a) * binom(q, b) would price 169.
    recs = search_extremal("13", "x^2", "x", 12, 1, budget=13)
    assert len(recs) == 13
    with pytest.raises(BudgetExceededError, match="needs 13 pairs"):
        search_extremal("13", "x^2", "x", 12, 1, budget=12)


def test_search_oversized_sizes_clamp_to_empty():
    assert list(search_extremal("5", "x^2", "x", 9, 2)) == []
    recs = search_extremal("5", "x^2", "x", (3, 9), 1)
    assert {r.a for r in recs} == {3, 4}    # pool has 4 usable elements


def test_search_rejects_bad_parameters():
    with pytest.raises(InvalidParametersError):
        search_extremal("5", "x^2", "x", 2, 2, mode="sample")
    with pytest.raises(InvalidParametersError):
        search_extremal("5", "x", "x^2", 2, 2)
    with pytest.raises(InvalidParametersError):
        search_extremal("5", "x^2", "x", 0, 2)
    with pytest.raises(InvalidParametersError, match=r"bad a range \(3, 2\)"):
        search_extremal("5", "x^2", "x", (3, 2), 2)
    with pytest.raises(InvalidParametersError):
        search_extremal("5", "x^2", "x", 2, 2, parallelism=0)


def test_search_negative_slack_dump(monkeypatch):
    # Force an impossible bound so the fatal diagnostic path fires.
    monkeypatch.setattr(explore.bound_mod, "theorem_bound",
                        lambda a, b, d, p: SimpleNamespace(bound=10**6))
    with pytest.raises(InternalInvariantError) as e:
        search_extremal("5", "x^2", "x", 2, 2)
    msg = str(e.value)
    assert "negative slack" in msg
    assert "field=5" in msg and "g=x^2" in msg and "A={" in msg and "B={" in msg


def test_subfield_negative_slack_dump(monkeypatch):
    monkeypatch.setattr(explore.bound_mod, "theorem_bound",
                        lambda a, b, d, p: SimpleNamespace(bound=10**6))
    with pytest.raises(InternalInvariantError) as e:
        subfield_experiment("3^2", 1, Fraction(1, 2))
    msg = str(e.value)
    assert "negative slack" in msg
    assert "field=3^2/t^2+1" in msg and "g=x^2" in msg and "h=x" in msg
    assert "A={1,2}" in msg and "B={0,1,2}" in msg


# -- evaluation kernel against the field-arithmetic oracle ----------------------

# Cubic g; every h has a root in the field, so A's pool loses elements.
KERNEL_CASES = [("5", "x^3+2*x", "x^2+1"), ("7", "x^3+3", "x^2+6"),
                ("3^2", "x^3+x", "x+1"), ("2^3", "x^3+x+1", "x")]


def _oracle_size(field, g, h, rec):
    A = [field.parse_element(x) for x in rec.A]
    B = [field.parse_element(y) for y in rec.B]
    return len(image_double_loop(field, g, h, A, B))


@pytest.mark.parametrize("field_s, g_s, h_s", KERNEL_CASES)
def test_value_rows_match_double_loop_oracle(field_s, g_s, h_s):
    field = parse_field(field_s)
    g, h = parse_poly(g_s, field), parse_poly(h_s, field)
    pool = [x for x in field.elements() if not h(x).is_zero()]
    assert len(pool) < field.order
    rng = Xoshiro256StarStar(field.order)
    for _ in range(30):
        A = [pool[i] for i in rng.sample_indices(len(pool), 1 + rng.bounded(len(pool)))]
        B = [field.from_index(i) for i in
             rng.sample_indices(field.order, 1 + rng.bounded(field.order))]
        inst = check_instance(field, g, h, A, B)
        assert set(image(inst)) == image_double_loop(field, g, h, A, B)

    recs = list(search_extremal(field_s, g_s, h_s, (1, 2), (1, 2)))
    recs += search_extremal(field_s, g_s, h_s, (1, 4), (1, 4),
                            mode="random", sample_count=20, seed=3)
    if field.n > 1:
        recs += subfield_experiment(field, 1, Fraction(1, 2), g=g_s, h=h_s)
        recs += subfield_experiment(field, 1, Fraction(1, 2), g=g_s, h=h_s,
                                    theta_count=3, seed=4, random_a=True)
    for rec in recs:
        assert rec.image_size == _oracle_size(field, g, h, rec), rec


def test_search_evaluates_only_the_pairs_it_samples(monkeypatch):
    evaluated = []
    kernel = explore.bound_mod.value_rows

    def counting(g, h, xs, ys):
        evaluated.append(len(xs) * len(ys))
        assert sum(evaluated) <= limit  # before an oversized table is built
        return kernel(g, h, xs, ys)

    monkeypatch.setattr(explore.bound_mod, "value_rows", counting)
    # Exhaustive: one row per x of the pool (h = x drops 0) over F_13.
    limit = 12 * 13
    search_extremal("13", "x^2", "x", (2, 3), 2)
    assert sum(evaluated) == limit
    # Random over a large field: at most a*b values per sample, never the
    # pool x field table (about 10^8 values on F_10007).
    evaluated.clear()
    limit = 5 * 5 * 5
    recs = search_extremal("10007", "x^2", "x", 5, 5, mode="random", sample_count=5, seed=1)
    assert len(recs) == 5 and sum(evaluated) > 0
    field = parse_field("10007")
    g, h = parse_poly("x^2", field), parse_poly("x", field)
    for rec in recs:
        assert rec.image_size == _oracle_size(field, g, h, rec), rec


def test_drivers_never_list_the_field(monkeypatch):
    # The roots of h come from an index scan and names from from_index, so
    # no driver needs all q elements; records are the same as before.
    runs = [lambda: search_extremal("13", "x^2", "x", (2, 3), 2),
            lambda: search_extremal("10007", "x^2", "x", 5, 5, mode="random",
                                    sample_count=5, seed=1),
            lambda: subfield_experiment("2^6", 2, Fraction(1, 2))]
    expected = [list(run()) for run in runs]

    def refuse(field):
        raise AssertionError(f"{field}.elements() called")

    monkeypatch.setattr(Field, "elements", refuse)
    assert [list(run()) for run in runs] == expected
    assert [str(r) for r in parse_poly("x^2-1", Field(13)).roots()] == ["1", "12"]


def test_subfield_evaluates_each_value_once(monkeypatch):
    evaluated = []
    kernel = explore.bound_mod.value_rows

    def counting(g, h, xs, ys):
        evaluated.append(len(xs) * len(ys))
        return kernel(g, h, xs, ys)

    monkeypatch.setattr(explore.bound_mod, "value_rows", counting)
    # |A| x (|K| + number of thetas): one value per (x, y), base and sweep.
    for field_s, m, theta_count, thetas in (("5^2", 1, None, 20),
                                            ("2^4", 2, 5, 5), ("3^4", 2, 7, 7)):
        evaluated.clear()
        recs = subfield_experiment(field_s, m, Fraction(1, 2), theta_count=theta_count)
        a, q_m = recs[0].a, len(recs[0].B)
        assert len(recs) == 1 + thetas
        assert sum(evaluated) == a * (q_m + thetas)


# -- bit-mask measuring against the int-set oracle ------------------------------

MEASURE_CASES = {"13": ("x^3+2*x", "x+1"), "3^2": ("x^2", "x"),
                 "2^4": ("x^3+x", "x^2+1"), "2^6": ("x^2+t*x", "x+t")}


@functools.cache
def _measure_case(field_s):
    field = parse_field(field_s)
    return (field,) + tuple(parse_poly(t, field) for t in MEASURE_CASES[field_s])


def _measured(measure, field, g, h, runs_or_tasks):
    """The records in output order, or the error message."""
    try:
        return list(measure(field, g, h, runs_or_tasks))
    except InternalInvariantError as e:
        return str(e)


def _tasks(runs):
    """The (A, B) tasks of runs (A, [B, ...], cols), in run order."""
    return [(A, B) for A, Bs, _ in runs for B in Bs]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), field_s=st.sampled_from(sorted(MEASURE_CASES)),
       forced=st.booleans())
def test_measure_matches_the_int_set_oracle(data, field_s, forced):
    # A few A's and lists of B's drawn into many runs, so an A recurs with
    # several B's inside one run and in runs next to and apart from each
    # other, and runs share one list of B's as exhaustive search's do.  A
    # run's columns are its B's elements plus up to three y that its B's
    # need not use, in any order, as exhaustive search reads the whole field.
    # ``forced`` demands a*b distinct values, so pairs with a collision
    # fail and the first one in run order is named.  Otherwise the records
    # the ranked result builds are the oracle's, stably sorted by slack.
    field, g, h = _measure_case(field_s)
    pool = [x.index() for x in field.elements() if not h(x).is_zero()]
    def subsets(universe):
        return st.lists(st.sampled_from(universe), min_size=1, max_size=5,
                        unique=True).map(tuple)
    def with_columns(A, Bs):
        extra = st.lists(st.sampled_from(range(field.order)), max_size=3)
        return extra.flatmap(lambda e: st.permutations(sorted(set().union(e, *Bs)))).map(
            lambda cols: (A, Bs, tuple(cols)))
    As = data.draw(st.lists(subsets(pool), min_size=1, max_size=4))
    B_lists = data.draw(st.lists(st.lists(subsets(range(field.order)),
                                          min_size=1, max_size=4),
                                 min_size=1, max_size=3))
    runs = data.draw(st.lists(st.tuples(st.sampled_from(As), st.sampled_from(B_lists))
                              .flatmap(lambda run: with_columns(*run)),
                              min_size=1, max_size=6))
    with pytest.MonkeyPatch.context() as mp:
        if forced:
            mp.setattr(explore.bound_mod, "theorem_bound",
                       lambda a, b, d, p: SimpleNamespace(bound=a * b))
        expected = _measured(measure_int_sets, field, g, h, _tasks(runs))
        if isinstance(expected, list):
            expected.sort(key=lambda r: r.slack)
        assert _measured(explore._measure, field, g, h, runs) == expected


def test_measure_names_the_first_negative_slack_witness(monkeypatch):
    # On F_13 with f = x^2 + y*x, x = 1 and x = 12 = -1 both give 1 at y = 0,
    # so the fourth task is the first with fewer than a*b values, after
    # A = {1,2} has recurred apart from its first run.
    monkeypatch.setattr(explore.bound_mod, "theorem_bound",
                        lambda a, b, d, p: SimpleNamespace(bound=a * b))
    field = parse_field("13")
    g, h = parse_poly("x^2", field), parse_poly("x", field)
    runs = [((1, 2), [(0, 1)], (0, 1)), ((3, 4), [(0, 1)], (0, 1)),
            ((1, 2), [(5, 7)], (5, 7)), ((1, 12), [(0, 1), (2, 3)], (0, 1, 2, 3))]
    messages = []
    for measure, arg in ((explore._measure, runs), (measure_int_sets, _tasks(runs))):
        with pytest.raises(InternalInvariantError) as e:
            measure(field, g, h, arg)
        messages.append(str(e.value))
    assert messages[0] == messages[1] == (
        "negative slack -1: image_size 3 below bound 4 for field=13 g=x^2 h=x "
        "A={1,12} B={0,1}")


def test_measure_renders_only_the_elements_in_some_set(monkeypatch):
    field, g, h = _measure_case("2^6")
    runs = [((1, 2), [(0, 5), (7,)], (0, 5, 7)), ((9,), [(5, 63)], (5, 63))]
    rendered = []
    to_str = FieldElem.__str__
    monkeypatch.setattr(FieldElem, "__str__",
                        lambda x: rendered.append(x.index()) or to_str(x))
    str(g), str(h)
    polys = len(rendered)               # the coefficients of g and h
    records = list(explore._measure(field, g, h, runs))
    assert len(records) == 3                # names are rendered as records are built
    assert sorted(rendered[2 * polys:]) == [0, 1, 2, 5, 7, 9, 63]


# -- subfield distance ------------------------------------------------------------


def test_nearest_subfield_distance_examples():
    F9 = Field(3, 2)
    K = F9.subfield(1)
    assert nearest_subfield_distance(K, F9) == (0, 3)
    assert nearest_subfield_distance(list(K) + [F9.parse_element("t")], F9) == (1, 3)
    assert nearest_subfield_distance(F9.elements(), F9) == (0, 9)
    # Tie between distances resolves to the larger subfield.
    six = list(K) + [x for x in F9.elements() if x not in set(K)][:3]
    assert nearest_subfield_distance(six, F9) == (3, 9)


def test_nearest_subfield_distance_prime_field():
    F7 = Field(7)
    assert nearest_subfield_distance([F7.element(2)], F7) == (6, 7)


def test_only_intermediate_subfields_get_index_sets():
    # F_p is the first p indices and the whole field's distance is q - |B|,
    # so a prime field or a prime-degree extension builds no index set.
    for field_s in ("13", "251", "2", "31^2"):
        assert explore._subfield_index_sets(parse_field(field_s)) == []
    F64 = parse_field("2^6")
    assert [(order, len(s)) for order, s in explore._subfield_index_sets(F64)] == [
        (4, 4), (8, 8)]
    assert nearest_subfield_distance(F64.subfield(2), F64) == (0, 4)
    assert nearest_subfield_distance(F64.subfield(1), F64) == (0, 2)
    assert nearest_subfield_distance(F64.elements()[:40], F64) == (24, 64)


# -- subfield experiments ---------------------------------------------------------


def test_subfield_f9_half_frozen():
    recs = subfield_experiment("3^2", 1, Fraction(1, 2))
    F9 = Field(3, 2)
    assert len(recs) == 1 + 6           # baseline plus every theta outside K
    base = recs[0]
    assert base.a == 2 and base.b == 3
    assert base.A == ("1", "2")
    assert base.B == tuple(str(y) for y in F9.subfield(1))
    # With coefficients in K the image stays inside K: no growth at all.
    assert base.image_size == 3 and base.slack == 0
    assert base.proved_threshold is None and base.conjectured_threshold is None
    assert base.to_dict()["proved_threshold"] is None
    assert base.to_dict()["conjectured_threshold"] is None
    assert base.subfield_distance == 0 and base.subfield_order == 3
    for r in recs[1:]:
        assert r.b == 4
        assert r.proved_threshold == 2      # floor(1.5 * 3) - 1
        assert r.conjectured_threshold == 3
        assert r.subfield_distance == 1 and r.subfield_order == 3
        assert r.image_size >= r.proved_threshold
        assert r.slack >= 0


@pytest.mark.parametrize("field_s, m", [("2^4", 2), ("2^6", 2), ("2^6", 3), ("3^4", 2)])
@pytest.mark.parametrize("random_a", [False, True])
def test_subfield_records_match_the_int_set_oracle(field_s, m, random_a):
    # Whole records on fields with intermediate subfields, every theta: K by
    # the Frobenius test, A the first usable elements of K or a seeded draw
    # of them, each image an int set, thresholds on the theta records only.
    field, c, seed = parse_field(field_s), Fraction(1, 2), 3
    g, h = parse_poly("x^2", field), parse_poly("x", field)
    K = tuple(x.index() for x in frobenius_subfield(field, m))
    pool = [i for i in K if i and not h(field.from_index(i)).is_zero()]
    a = min(math.ceil(c * len(K)), len(pool))
    picks = Xoshiro256StarStar(seed).sample_indices(len(pool), a) if random_a else range(a)
    A = tuple(pool[i] for i in picks)
    base, *swept = measure_int_sets(field, g, h, [(A, K)] + [
        (A, tuple(sorted(K + (theta,)))) for theta in range(field.order) if theta not in K])
    thresholds = {"proved_threshold": math.floor((1 + c / 2) * len(K) - 1),
                  "conjectured_threshold": math.floor((1 + c) * len(K) - 1)}
    expected = [base] + [r._replace(**thresholds) for r in swept]
    assert list(subfield_experiment(field_s, m, c, seed=seed, random_a=random_a)) == expected


def _count_frobenius_powers(monkeypatch):
    calls = []
    pow_ = FieldElem.__pow__

    def counted(self, e):
        calls.append(e)
        return pow_(self, e)

    monkeypatch.setattr(FieldElem, "__pow__", counted)
    return calls


def test_subfield_experiment_tests_each_proper_subfield_once(monkeypatch):
    calls = _count_frobenius_powers(monkeypatch)
    subfield_experiment("5^2", 1, Fraction(1, 2))
    assert len(calls) == 0              # m = 1 reads the exp table, no element is tested


def test_search_tests_proper_subfields_only(monkeypatch):
    builds = []
    build = extension_module._build_tables
    monkeypatch.setattr(extension_module, "_build_tables",
                        lambda field: builds.append(field) or build(field))
    calls = _count_frobenius_powers(monkeypatch)
    search_extremal("2^4", "x^2", "x", 1, 1)
    # m = 2 reads the tables that the value rows use; no element is tested
    assert len(builds) == 1 and calls == []


@pytest.mark.parametrize("field_s", ["3^2", "2^4", "5^2", "7^4"])
def test_prime_subfield_is_the_frobenius_fixed_points(field_s):
    field = parse_field(field_s)
    assert field.subfield(1) == tuple(x for x in field.elements() if x ** field.p == x)


def test_subfield_a_clips_to_available_pool():
    recs = subfield_experiment("3^2", 1, Fraction(3, 4))
    assert recs[0].a == 2               # ceil(2.25) = 3 capped at |K*| = 2
    assert recs[0].A == ("1", "2")
    assert recs[1].proved_threshold == math.floor(Fraction(11, 8) * 3 - 1)


def test_subfield_theta_sampling_and_determinism():
    full = subfield_experiment("5^2", 1, Fraction(1, 2), seed=9)
    assert len(full) == 1 + 20
    sampled = subfield_experiment("5^2", 1, Fraction(1, 2), theta_count=4, seed=9)
    assert len(sampled) == 1 + 4
    again = subfield_experiment("5^2", 1, Fraction(1, 2), theta_count=4, seed=9)
    assert records_to_csv(sampled) == records_to_csv(again)
    thetas = {r.B for r in sampled[1:]}
    assert thetas <= {r.B for r in full[1:]}
    with pytest.raises(InvalidParametersError):
        subfield_experiment("5^2", 1, Fraction(1, 2), theta_count=0)
    with pytest.raises(InvalidParametersError):
        subfield_experiment("5^2", 1, Fraction(1, 2), theta_count=21)


def test_subfield_parallelism_is_invisible():
    one = subfield_experiment("3^2", 1, Fraction(1, 2), parallelism=1)
    three = subfield_experiment("3^2", 1, Fraction(1, 2), parallelism=3)
    assert records_to_csv(one) == records_to_csv(three)


def test_subfield_random_a_is_seeded():
    a1 = subfield_experiment("5^2", 1, Fraction(1, 2), random_a=True, seed=3)
    a2 = subfield_experiment("5^2", 1, Fraction(1, 2), random_a=True, seed=3)
    assert records_to_csv(a1) == records_to_csv(a2)
    assert a1[0].a == 3                 # ceil(2.5), pool is large enough
    K_star = {str(x) for x in Field(5, 2).subfield(1) if not x.is_zero()}
    assert set(a1[0].A) <= K_star


def test_subfield_rejects_bad_divisors_and_fractions():
    with pytest.raises(NotProperDivisorError):
        subfield_experiment("3^2", 2, Fraction(1, 2))       # m = n is not proper
    with pytest.raises(NotProperDivisorError):
        subfield_experiment("2^6", 4, Fraction(1, 2))
    with pytest.raises(NotProperDivisorError):
        subfield_experiment("3^2", 0, Fraction(1, 2))
    for bad_c in (0, 1, Fraction(3, 2), -1):
        with pytest.raises(InvalidParametersError):
            subfield_experiment("3^2", 1, bad_c)
    # What Fraction cannot read is bad input too, named as given.
    for bad_c in ("1/0", "abc", "1ex", float("inf")):
        with pytest.raises(InvalidParametersError, match=f"^c = {re.escape(repr(bad_c))} "):
            subfield_experiment("3^2", 1, bad_c)


def test_subfield_refuses_a_c_exponent_past_the_bound():
    # 4301 is just past the bound, and Fraction expands it quickly, so a
    # missing guard fails here instead of hanging.
    assert MAX_C_EXPONENT == 4300
    with pytest.raises(InvalidParametersError, match="exponent"):
        subfield_experiment("3^2", 1, "1e-4301")
    with pytest.raises(InvalidParametersError, match="exponent"):
        subfield_experiment("3^2", 1, "5E+4301")
    recs = subfield_experiment("3^2", 1, "1e-4300")     # A is one element
    assert recs[0].a == 1
    assert (recs[1].proved_threshold, recs[1].conjectured_threshold) == (2, 2)


def test_subfield_custom_polynomials():
    recs = subfield_experiment("2^4", 2, Fraction(1, 2), g="x^3", h="1")
    assert recs[0].g == "x^3" and recs[0].h == "1"
    assert all(r.slack >= 0 for r in recs)
    assert len(recs) == 1 + 12          # 16 - 4 external points
