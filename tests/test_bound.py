import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab import bound as bound_mod
from expanderlab.bound import (
    INF,
    ExpanderInstance,
    check_instance,
    corollary_bound,
    image,
    lucas_nonvanishing,
    parse_characteristic,
    theorem_bound,
)
from expanderlab.errors import (
    FieldMismatchError,
    InvalidParametersError,
    NotPrimeError,
)
from expanderlab.field import extension_field, is_prime, prime_field
from expanderlab.poly import parse_poly

from oracles import admissible_k_scan, binom_mod_pascal, image_double_loop


def make_instance(field, g_text, h_text, A, B):
    inst, violations = check_instance(field, parse_poly(g_text, field),
                                      parse_poly(h_text, field), A, B)
    assert violations == [], violations
    return inst


def test_lucas_examples():
    assert lucas_nonvanishing(5, 3, 2) is False     # binom(5,3)=10, even
    assert lucas_nonvanishing(6, 3, 7) is True      # binom(6,3)=20=6 mod 7
    assert lucas_nonvanishing(4, 2, 2) is False     # binom(4,2)=6
    assert lucas_nonvanishing(3, 5, 7) is False     # r > k
    assert lucas_nonvanishing(0, 0, 5) is True


def test_lucas_infinite_characteristic():
    assert lucas_nonvanishing(10, 4, INF) is True
    assert lucas_nonvanishing(4, 10, INF) is False
    assert lucas_nonvanishing(0, 0, INF) is True


def test_lucas_matches_pascal_oracle():
    for p in (2, 3, 5, 7):
        for k in range(0, 40):
            for r in range(0, k + 1):
                assert lucas_nonvanishing(k, r, p) == (binom_mod_pascal(k, r, p) != 0), \
                    (k, r, p)


def test_lucas_rejects_bad_inputs():
    with pytest.raises(InvalidParametersError):
        lucas_nonvanishing(-1, 0, 5)
    with pytest.raises(NotPrimeError):
        lucas_nonvanishing(4, 2, 6)


def test_parse_characteristic():
    assert parse_characteristic("13") == 13
    assert parse_characteristic("inf") == INF
    assert parse_characteristic(" INF ") == INF
    with pytest.raises(NotPrimeError):
        parse_characteristic("9")
    with pytest.raises(NotPrimeError):
        parse_characteristic("many")


def test_theorem_bound_examples():
    r = theorem_bound(6, 4, 2, 13)
    assert r.k_max_range == 5
    assert r.admissible_k == (3, 4, 5)
    assert r.best_k == 5 and r.bound == 6 and r.fallback is False

    r = theorem_bound(4, 3, 2, 5)
    assert r.admissible_k == (2, 3)
    assert r.bound == 4

    r = theorem_bound(1, 7, 3, 5)
    assert r.k_max_range == 6 and r.bound == 7      # a=1 collapses to |B|


def test_theorem_bound_skips_vanishing_binomials():
    # binom(k,1) = k vanishes at multiples of p.
    r = theorem_bound(7, 2, 1, 3)
    assert r.k_max_range == 7
    assert 3 not in r.admissible_k and 6 not in r.admissible_k
    assert r.best_k == 7 and r.bound == 8


def test_theorem_bound_infinite_characteristic():
    r = theorem_bound(100, 5, 3, INF)
    assert r.admissible_k == tuple(range(4, 38))
    assert r.bound == 38
    assert r.to_dict()["characteristic"] == "inf"


def test_theorem_bound_never_falls_back():
    # k = b-1 is admissible in every characteristic, so the enumeration always
    # produces a witness.
    for a, b, d, p in itertools.product((1, 2, 5, 9), (1, 2, 4), (1, 2, 3), (2, 5, INF)):
        r = theorem_bound(a, b, d, p)
        assert r.fallback is False
        assert r.best_k is not None
        assert r.bound >= b


def test_theorem_bound_validates_the_characteristic_once(monkeypatch):
    calls = []
    prime = bound_mod.is_prime

    def counted(n):
        calls.append(n)
        return prime(n)

    monkeypatch.setattr(bound_mod, "is_prime", counted)
    assert theorem_bound(1000, 10, 1, 2).bound == 1008
    assert calls == [2]


@settings(max_examples=300, deadline=None)
@given(a=st.integers(1, 5000), b=st.integers(1, 400), d=st.integers(1, 6),
       p=st.sampled_from((2, 3, 5, 7, 13, INF)))
@example(a=3, b=1, d=5, p=2)            # a <= d, b = 1: the range is [0, 0]
@example(a=1, b=1, d=1, p=INF)
@example(a=5000, b=1, d=1, p=3)         # b = 1: every k is admissible
@example(a=4000, b=8, d=1, p=2)         # b - 1 = 2^3 - 1
@example(a=5000, b=243, d=2, p=3)       # b - 1 = 3^5 - 1
@example(a=5000, b=49, d=3, p=7)        # b - 1 = 7^2 - 1
@example(a=5000, b=1000, d=1, p=2)      # bound-scan's digits: a listed low half
@example(a=20, b=1000, d=1, p=2)        # hi - r below one low block of 32:
                                        # one prefix, cut at hi
@example(a=170, b=15, d=1, p=13)        # hi = 13^2 + 14: a listed low half
                                        # of 144, and one k past its block
@example(a=14, b=2, d=1, p=13)          # hi = 13 + 1: a range low half
@example(a=252, b=2, d=1, p=251)        # hi = 251 + 1
def test_theorem_bound_matches_the_scan(a, b, d, p):
    assert theorem_bound(a, b, d, p).admissible_k == admissible_k_scan(a, b, d, p)


def test_theorem_bound_enumerates_instead_of_scanning():
    # b - 1 = 2^20 - 1 has twenty 1-digits, so the admissible k are exactly
    # the m * 2^20 + 2^20 - 1 in range; a scan would test 10^9 k.
    r = theorem_bound(10**9, 2**20, 1, 2)
    assert r.k_max_range == 10**9 + 2**20 - 2
    expected = tuple(range(2**20 - 1, r.k_max_range + 1, 2**20))
    assert len(expected) == 954
    assert r.admissible_k == expected
    assert r.best_k == expected[-1] and r.bound == expected[-1] + 1


def test_theorem_bound_limits_the_report(monkeypatch):
    monkeypatch.setattr(bound_mod, "MAX_ADMISSIBLE_K", 10)
    assert len(theorem_bound(10, 1, 1, 2).admissible_k) == 10      # k = 0..9
    assert len(theorem_bound(20, 2, 1, 2).admissible_k) == 10      # odd k <= 19
    for a, b in ((11, 1), (22, 2)):
        with pytest.raises(InvalidParametersError, match=rf"more than 10 .*a={a}, b={b}, d=1"):
            theorem_bound(a, b, 1, 2)
    with pytest.raises(InvalidParametersError, match="more than 10"):
        theorem_bound(10**40, 1, 1, INF)


def test_theorem_bound_refuses_a_huge_sparse_set_at_once(monkeypatch):
    # b = 2, p = 2: every odd k <= 10^15 is admissible, 5 * 10^14 of them.
    def enumerate_(*args):
        raise AssertionError("enumerated before refusing")

    monkeypatch.setattr(bound_mod, "_dominating", enumerate_)
    with pytest.raises(InvalidParametersError, match="more than 10000000 .*a=10+, b=2"):
        theorem_bound(10**15, 2, 1, 2)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(1, 10**5), b=st.integers(1, 2000), d=st.integers(1, 6),
       p=st.sampled_from((2, 3, 5, 7, 13, INF)))
def test_admissible_count_is_closed_form(a, b, d, p):
    # The enumeration (checked against the scan above) gives the true count;
    # under a limit of 500 the larger sets must be refused.  The digit
    # routines take characteristic zero as theorem_bound passes it, as the
    # base k_max_range + 1.
    k_max_range = (a - 1) // d + b - 1
    base = k_max_range + 1 if p == INF else p
    count = sum(map(len, bound_mod._dominating(b - 1, k_max_range, base)))
    assert bound_mod._count_dominating(b - 1, k_max_range, base) == count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bound_mod, "MAX_ADMISSIBLE_K", 500)
        if count > 500:
            with pytest.raises(InvalidParametersError, match="more than 500"):
                theorem_bound(a, b, d, p)
        else:
            assert len(theorem_bound(a, b, d, p).admissible_k) == count


def test_dominating_yields_one_chunk_per_prefix_above_the_free_digit():
    # At r's lowest nonzero digit every lower digit is free, so each prefix
    # above it is one chunk: a base above hi or r = 0 leaves a single one.
    assert list(bound_mod._dominating(5, 100, 101)) == [range(5, 101)]
    assert list(bound_mod._dominating(0, 100, 2)) == [range(0, 101)]
    assert list(bound_mod._dominating(0, 10**6, 3)) == [range(0, 10**6 + 1)]
    assert list(bound_mod._dominating(0, 0, 1)) == [range(0, 1)]
    # The digits allowed at the free position form one chunk, not one each:
    # r = 1 in base 3 takes digits 1 and 2 together.
    assert list(bound_mod._dominating(1, 8, 3)) == [
        range(1, 3), range(4, 6), range(7, 9)]
    # r's low digits all 0: one range per prefix, not one chunk per k.
    chunks = bound_mod._dominating(2**10, 10**6, 2)
    assert len(chunks) == 488
    assert all(type(chunk) is range and len(chunk) == 2**10 for chunk in chunks)
    # The bound-scan parameters: a = 10^6, b = 1000, d = 1 over F_2.  The
    # k are counted; the chunks stay far fewer than the 3,908 k.
    chunks = bound_mod._dominating(999, 10**6 + 998, 2)
    assert sum(map(len, chunks)) == 3908
    assert len(chunks) <= 63


@settings(max_examples=200, deadline=None)
@given(a=st.integers(1, 10**4), b=st.integers(1, 300), d=st.integers(1, 6),
       gap=st.integers(0, 200))
def test_theorem_bound_in_a_prime_above_the_range_matches_inf(a, b, d, gap):
    # Above k_max_range every k is one base-P digit, as in characteristic
    # zero, so only the reported characteristic differs.
    k_max_range = (a - 1) // d + b - 1
    P = next(n for n in itertools.count(k_max_range + 1 + gap) if is_prime(n))
    prime, zero = theorem_bound(a, b, d, P), theorem_bound(a, b, d, INF)
    assert (prime.k_max_range, prime.admissible_k, prime.best_k, prime.bound) == (
        zero.k_max_range, zero.admissible_k, zero.best_k, zero.bound)


def test_theorem_bound_rejects_bad_inputs():
    with pytest.raises(InvalidParametersError):
        theorem_bound(0, 1, 1, 5)
    with pytest.raises(InvalidParametersError):
        theorem_bound(3, 1, 0, 5)
    with pytest.raises(NotPrimeError):
        theorem_bound(3, 1, 1, 4)
    with pytest.raises(NotPrimeError):
        theorem_bound(3, 2, 1, 2.5)


def test_corollary_examples():
    assert corollary_bound(6, 4, 2, 13) == 6
    assert corollary_bound(6, 7, 2, 7) == 7         # capped by p
    assert corollary_bound(1, 1, 5, INF) == 1
    assert corollary_bound(5, 2, 2, INF) == 3       # floor(5/2 + 1) = 3
    assert corollary_bound(6, 2, 2, INF) == 4       # exact 6/2 + 1
    assert corollary_bound(1, 1, 3, 2) == 1         # p-cap never drops below 1
    for a, b, d in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(InvalidParametersError):
            corollary_bound(a, b, d, 13)


def test_theorem_dominates_corollary():
    rng = random.Random(20260816)
    primes = (2, 3, 5, 7, 11, 13, 31)
    for _ in range(3000):
        a = rng.randrange(1, 60)
        b = rng.randrange(1, 20)
        d = rng.randrange(1, 8)
        p = rng.choice(primes + (INF,))
        assert theorem_bound(a, b, d, p).bound >= corollary_bound(a, b, d, p), (a, b, d, p)


def test_bound_monotone_in_a():
    # Growing A extends the admissible range upward, so the best k cannot
    # shrink.  No such monotonicity holds in b for finite p.
    for p in (2, 5, 13, INF):
        for b, d in ((1, 1), (2, 2), (3, 1)):
            prev = 0
            for a in range(1, 30):
                cur = theorem_bound(a, b, d, p).bound
                assert cur >= prev, (a, b, d, p)
                prev = cur


def test_bound_monotone_in_b_for_infinite_characteristic():
    for a, d in ((1, 1), (7, 2), (30, 3)):
        prev = 0
        for b in range(1, 20):
            cur = theorem_bound(a, b, d, INF).bound
            assert cur >= prev
            prev = cur


def test_report_serialization_keys():
    d = theorem_bound(6, 4, 2, 13).to_dict()
    assert list(d) == ["a", "b", "d", "characteristic", "k_max_range",
                       "admissible_k", "best_k", "bound", "fallback"]
    assert d["characteristic"] == 13
    assert d["admissible_k"] == [3, 4, 5]


def test_check_instance_accepts_valid():
    F = prime_field(13)
    inst, violations = check_instance(F, parse_poly("x^2", F), parse_poly("x", F),
                                      [3, 1, 2], [0, 1])
    assert violations == []
    assert isinstance(inst, ExpanderInstance)
    assert [str(x) for x in inst.A] == ["1", "2", "3"]      # canonical order
    assert inst.a == 3 and inst.b == 2 and inst.d == 2
    assert inst.bound_report().bound == theorem_bound(3, 2, 2, 13).bound


def test_check_instance_flags_root_of_h():
    F = prime_field(13)
    inst, violations = check_instance(F, parse_poly("x^2", F), parse_poly("x", F),
                                      [0, 1], [0, 1])
    assert inst is None
    assert violations == ["A contains root 0 of h"]


def test_check_instance_lists_every_root_violation():
    F = prime_field(5)
    g, h = parse_poly("x^3", F), parse_poly("x^2+2*x", F)   # roots 0 and 3
    inst, violations = check_instance(F, g, h, [4, 3, 0], [1])
    assert inst is None
    assert violations == ["A contains root 0 of h", "A contains root 3 of h"]


def test_check_instance_flags_degree_order():
    F = prime_field(13)
    inst, violations = check_instance(F, parse_poly("x", F), parse_poly("x^2", F),
                                      [1], [0])
    assert inst is None
    assert any(v.startswith("deg g") for v in violations)


def test_check_instance_flags_zero_h_and_constant_g():
    F = prime_field(5)
    inst, violations = check_instance(F, parse_poly("3", F), parse_poly("0", F),
                                      [1], [0])
    assert inst is None
    assert "h is the zero polynomial" in violations
    assert any("g is constant" in v for v in violations)


def test_check_instance_flags_empty_and_duplicate_sets():
    F = prime_field(13)
    g, h = parse_poly("x^2", F), parse_poly("x", F)
    inst, violations = check_instance(F, g, h, [], [0])
    assert inst is None and "A is empty" in violations
    inst, violations = check_instance(F, g, h, [1], [])
    assert inst is None and "B is empty" in violations
    inst, violations = check_instance(F, g, h, [1, 1, 2], [0, 0])
    assert inst is None
    assert "A contains duplicate elements" in violations
    assert "B contains duplicate elements" in violations


def test_check_instance_collects_multiple_violations():
    F = prime_field(5)
    inst, violations = check_instance(F, parse_poly("x", F), parse_poly("x^2", F),
                                      [], [0])
    assert inst is None
    assert len(violations) >= 2


def test_check_instance_field_mismatch_raises():
    F, G5 = prime_field(13), prime_field(5)
    with pytest.raises(FieldMismatchError):
        check_instance(F, parse_poly("x^2", G5), parse_poly("x", F), [1], [0])
    with pytest.raises(FieldMismatchError):
        check_instance(F, parse_poly("x^2", F), parse_poly("x", G5), [1], [0])


def test_image_examples():
    F9 = extension_field(3, 2)
    inst = make_instance(F9, "x^2", "x", [F9.element(1), F9.element(2)],
                         F9.subfield(1))
    img = image(inst)
    assert img == F9.subfield(1)                     # canonical tuples match
    assert len(img) == 3


def test_image_is_canonically_ordered():
    F = prime_field(7)
    inst = make_instance(F, "x^2", "x", [3, 2], [5, 1])
    img = image(inst)
    indices = [v.index() for v in img]
    assert indices == sorted(indices)
    assert len(set(img)) == len(img)


def test_image_matches_table_oracle():
    rng = random.Random(99)
    F = prime_field(11)
    for _ in range(25):
        g = parse_poly(f"x^3+{rng.randrange(11)}*x", F)
        h = parse_poly(f"x+{rng.randrange(11)}", F)
        pool = [x for x in F.elements() if not h(x).is_zero()]
        A = rng.sample(pool, rng.randrange(1, 6))
        B = [F.element(y) for y in rng.sample(range(11), rng.randrange(1, 6))]
        inst, violations = check_instance(F, g, h, A, B)
        assert violations == []
        assert set(image(inst)) == image_double_loop(F, g, h, A, B)


def test_image_respects_theorem_bound_small_sweep():
    # Exhaustive soundness on a small grid: every valid instance has image
    # at least the reported bound.
    F = prime_field(7)
    g, h = parse_poly("x^2", F), parse_poly("x", F)
    elems = F.elements()
    nonzero = [x for x in elems if not x.is_zero()]
    for a in range(1, 5):
        for b in range(1, 4):
            for A in itertools.combinations(nonzero, a):
                for B in itertools.combinations(elems, b):
                    inst, violations = check_instance(F, g, h, A, B)
                    assert violations == []
                    assert len(image(inst)) >= inst.bound_report().bound
