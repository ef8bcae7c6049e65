"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line (outside pytest's capture, so the
lines appear live in any run) and then asserts.  Tolerances are stated in
the printed lines; all arithmetic checks are exact, so the only tolerances
are the runtime limits.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from expanderlab.bound import INF, check_instance, corollary_bound, image, \
    lucas_nonvanishing, theorem_bound
from expanderlab.certificate import build_certificate, solve_alpha, solve_beta, \
    verify_alpha, verify_beta
from expanderlab.explore import records_to_csv, search_extremal, subfield_experiment
from expanderlab.field import parse_field, prime_field
from expanderlab.poly import Poly, parse_poly
from expanderlab.rng import Xoshiro256StarStar

from oracles import pascal_rows_mod

G_CHOICES = ("x^2", "x^3", "x^3+x")
H_CHOICES = ("1", "x", "x+1")
SWEEP_FIELDS = ("2", "3", "5", "7", "11", "13", "2^2", "2^3", "3^2")

_FIELD_CACHE = {}


def _field(text):
    if text not in _FIELD_CACHE:
        _FIELD_CACHE[text] = parse_field(text)
    return _FIELD_CACHE[text]


@pytest.fixture
def report(capsys):
    def _report(ok: bool, line: str) -> None:
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {line}")
        assert ok, line
    return _report


def _value_rows(field, g, h):
    """Per usable x (h(x) != 0): the row of element indices of g(x) + y*h(x)
    over all y, so image sizes reduce to integer set sizes."""
    elements = field.elements()
    rows = []
    for x in elements:
        hx = h(x)
        if hx.is_zero():
            continue
        gx = g(x)
        rows.append([(gx + y * hx).index() for y in elements])
    return rows


def test_criterion_1_soundness_sweep(report):
    pair_cap = 1500
    samples_per_field = 10_000
    start = time.perf_counter()
    bound_cache = {}
    checked = violations = exhaustive_pairs = sampled_pairs = 0
    for field_text in SWEEP_FIELDS:
        field = _field(field_text)
        q = field.order
        rng = Xoshiro256StarStar(q)
        oversized = []
        for g_text, h_text in itertools.product(G_CHOICES, H_CHOICES):
            g = parse_poly(g_text, field)
            h = parse_poly(h_text, field)
            d = g.degree()
            rows = _value_rows(field, g, h)
            n_pool = len(rows)
            for a in range(1, n_pool + 1):
                for b in range(1, q + 1):
                    if a * b > 36:
                        continue
                    key = (a, b, d, field.p)
                    if key not in bound_cache:
                        bound_cache[key] = theorem_bound(*key).bound
                    bound = bound_cache[key]
                    if math.comb(n_pool, a) * math.comb(q, b) <= pair_cap:
                        for A in itertools.combinations(range(n_pool), a):
                            for B in itertools.combinations(range(q), b):
                                size = len({rows[r][j] for r in A for j in B})
                                checked += 1
                                exhaustive_pairs += 1
                                if size < bound:
                                    violations += 1
                    else:
                        oversized.append((rows, n_pool, a, b, bound))
        if oversized:
            per_cell = max(1, samples_per_field // len(oversized))
            for rows, n_pool, a, b, bound in oversized:
                for _ in range(per_cell):
                    A = rng.sample_indices(n_pool, a)
                    B = rng.sample_indices(q, b)
                    size = len({rows[r][j] for r in A for j in B})
                    checked += 1
                    sampled_pairs += 1
                    if size < bound:
                        violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 120
    report(ok, f"criterion 1 soundness sweep: image_size >= theorem_bound on "
               f"{checked} instances ({exhaustive_pairs} exhaustive, "
               f"{sampled_pairs} sampled), {violations} violations, "
               f"{elapsed:.1f}s (limit 120s)")


def test_criterion_2_corollary_consistency(report):
    rng = random.Random(20260201)
    characteristics = (2, 3, 5, 7, 11, 13, INF)
    n = 10_000
    violations = 0
    for _ in range(n):
        a = rng.randrange(1, 51)
        b = rng.randrange(1, 51)
        d = rng.randrange(1, 6)
        p = rng.choice(characteristics)
        if theorem_bound(a, b, d, p).bound < corollary_bound(a, b, d, p):
            violations += 1
    ok = violations == 0
    report(ok, f"criterion 2 corollary consistency: theorem_bound >= "
               f"min(a/d+b-1, p) on {n} random (a,b,d,p) tuples, "
               f"{violations} violations")


def test_criterion_3_master_identity(report):
    rng = random.Random(20260202)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    target = 1000
    built = exact = 0
    while built < target:
        p = rng.choice(primes)
        F = _field(str(p))
        d = rng.randrange(1, 4)
        e = rng.randrange(0, d)
        g = Poly(F, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])
        h = Poly(F, [rng.randrange(p) for _ in range(e)] + [rng.randrange(1, p)])
        pool = [x for x in F.elements() if not h(x).is_zero()]
        if not pool:
            continue
        A = rng.sample(pool, rng.randrange(1, min(len(pool), 16) + 1))
        B = rng.sample(F.elements(), rng.randrange(1, min(p, 8) + 1))
        inst, violations = check_instance(F, g, h, A, B)
        assert violations == []
        k = rng.choice(inst.bound_report().admissible_k)
        C = rng.sample(F.elements(), k)
        cert = build_certificate(inst, C)
        built += 1
        if cert.identity_holds and cert.pointwise == cert.predicted:
            exact += 1
    ok = exact == target
    report(ok, f"criterion 3 master identity: pointwise == predicted exactly "
               f"on {exact}/{target} random certificates (random admissible k,"
               f" random C; zero tolerance)")


def test_criterion_4_lucas_oracle(report):
    start = time.perf_counter()
    comparisons = 0
    disagreements = 0
    for p in (2, 3, 5, 7, 11, 13):
        for k, row in enumerate(pascal_rows_mod(p, 200)):
            for r in range(k + 1):
                if lucas_nonvanishing(k, r, p) != (row[r] != 0):
                    disagreements += 1
                comparisons += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 1.0
    report(ok, f"criterion 4 Lucas oracle: {comparisons} exact agreements "
               f"with Pascal rows for 0 <= r <= k <= 200, "
               f"p in {{2,3,5,7,11,13}}, {elapsed:.2f}s (limit 1s)")


def test_criterion_5_vandermonde_deltas(report):
    rng = random.Random(20260203)
    primes = (11, 13, 17, 19, 23, 29, 31)
    h_texts = ("1", "x+1", "2*x+1")
    n = 1000
    solved = rejected = expected_rejections = 0
    for _ in range(n):
        p = rng.choice(primes)
        F = _field(str(p))
        size = rng.randrange(1, 9)
        B = rng.sample(F.elements(), size)
        beta = solve_beta(B)
        if verify_beta(beta, B, size):
            solved += 1
        for y in B:
            bad = dict(beta)
            bad[y] = bad[y] + F.element(rng.randrange(1, p))
            expected_rejections += 1
            if not verify_beta(bad, B, size):
                rejected += 1

        h = parse_poly(rng.choice(h_texts), F)
        pool = [x for x in F.elements() if not h(x).is_zero()]
        A = rng.sample(pool, rng.randrange(1, 9))
        b_w = rng.randrange(1, 5)
        D = rng.randrange(0, len(A))
        alpha = solve_alpha(A, h, b_w, D)
        if verify_alpha(alpha, A, h, b_w, D):
            solved += 1
        for x in A:
            bad = dict(alpha)
            bad[x] = bad[x] + F.element(rng.randrange(1, p))
            expected_rejections += 1
            if not verify_alpha(bad, A, h, b_w, D):
                rejected += 1
    ok = solved == 2 * n and rejected == expected_rejections
    report(ok, f"criterion 5 Vandermonde deltas: {solved}/{2 * n} solver "
               f"outputs verified, {rejected}/{expected_rejections} "
               f"single-point perturbations rejected")


def test_criterion_6_subfield_sharpness(report):
    baselines_exact = 0
    theta_checked = 0
    theta_ok = 0
    conjectured_reported = 0
    for field_text, p in (("3^2", 3), ("5^2", 5)):
        field = _field(field_text)
        K = field.subfield(1)
        A = [x for x in K if not x.is_zero()]
        g, h = parse_poly("x^2", field), parse_poly("x", field)
        inst, violations = check_instance(field, g, h, A, K)
        assert violations == []
        if image(inst) == K:
            baselines_exact += 1
        for c in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            proved = math.floor((1 + c / 2) * p - 1)
            conjectured = math.floor((1 + c) * p - 1)
            for r in subfield_experiment(field, 1, c)[1:]:
                theta_checked += 1
                if (r.proved_threshold == proved
                        and r.image_size >= r.proved_threshold):
                    theta_ok += 1
                if r.conjectured_threshold == conjectured:
                    conjectured_reported += 1
    ok = (baselines_exact == 2 and theta_checked > 0
          and theta_ok == theta_checked
          and conjectured_reported == theta_checked)
    report(ok, f"criterion 6 subfield sharpness: f(A,B)=B exactly on "
               f"{baselines_exact}/2 prime-subfield baselines (F_9, F_25); "
               f"all {theta_ok}/{theta_checked} theta images >= "
               f"floor((1+C/2)p-1) for C in {{1/4,1/2,3/4}}; conjectured "
               f"floor((1+C)p-1) reported, not asserted")


def test_criterion_7_determinism(report):
    workers = (1, 2, 8)
    identical_runs = 0
    total_runs = 0
    search_specs = (
        dict(field="7", g="x^3", h="x+1", a=(1, 3), b=(1, 2)),
        dict(field="3^2", g="x^2", h="x", a=(1, 2), b=(1, 2),
             mode="random", sample_count=200, seed=13),
    )
    for spec in search_specs:
        total_runs += 1
        outputs = {records_to_csv(search_extremal(**spec, parallelism=w)) for w in workers}
        if len(outputs) == 1:
            identical_runs += 1
    total_runs += 1
    outputs = {records_to_csv(subfield_experiment(
        "5^2", 1, Fraction(1, 2), seed=3, parallelism=w)) for w in workers}
    if len(outputs) == 1:
        identical_runs += 1
    ok = identical_runs == total_runs
    report(ok, f"criterion 7 determinism: byte-identical CSV across worker "
               f"counts 1/2/8 on {identical_runs}/{total_runs} runs "
               f"(exhaustive search, random search, subfield sweep)")


def test_criterion_8_degenerate_ladder(report):
    a1_checked = a1_exact = 0
    b1_checked = b1_ok = 0
    bound_mismatches = 0
    for p in (2, 3, 5, 7, 11, 13):
        field = _field(str(p))
        q = field.order
        for g_text, h_text in itertools.product(G_CHOICES, H_CHOICES):
            g = parse_poly(g_text, field)
            h = parse_poly(h_text, field)
            d = g.degree()
            rows = _value_rows(field, g, h)
            n_pool = len(rows)
            if n_pool == 0:
                continue
            # a = 1: the bound collapses to b and is attained exactly.
            for b in range(1, q + 1):
                if theorem_bound(1, b, d, p).bound != b:
                    bound_mismatches += 1
                for row in rows:
                    for B in itertools.combinations(range(q), b):
                        a1_checked += 1
                        if len({row[j] for j in B}) == b:
                            a1_exact += 1
            # b = 1: one y column, image at least floor((a-1)/d) + 1.
            for a in range(1, n_pool + 1):
                want = (a - 1) // d + 1
                if theorem_bound(a, 1, d, p).bound != want:
                    bound_mismatches += 1
                for j in range(q):
                    col = [row[j] for row in rows]
                    for A in itertools.combinations(range(n_pool), a):
                        b1_checked += 1
                        if len({col[r] for r in A}) >= want:
                            b1_ok += 1
    ok = (a1_exact == a1_checked and b1_ok == b1_checked
          and bound_mismatches == 0)
    report(ok, f"criterion 8 degenerate ladder: a=1 gives bound b and image "
               f"exactly b on {a1_exact}/{a1_checked} sets; b=1 gives image "
               f">= floor((a-1)/d)+1 on {b1_ok}/{b1_checked} sets; exhaustive"
               f" over F_p, p <= 13")
