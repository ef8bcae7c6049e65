import contextlib
import hashlib
import io
import random

import pytest

from expanderlab import bound as bound_mod
from expanderlab import certificate as certificate_mod
from expanderlab import extension as extension_module
from expanderlab.bound import ExpanderInstance, check_instance, theorem_bound
from expanderlab.certificate import (
    _dual_weights,
    _pointwise_sum,
    binomial_in_field,
    build_certificate,
    elementary_symmetric,
    lambda_coefficients,
    refute_cover,
    solve_alpha,
    solve_beta,
    verify_alpha,
    verify_beta,
)
from expanderlab.cli import main
from expanderlab.errors import (
    EmptySetError,
    FieldMismatchError,
    InadmissibleKError,
    InvalidParametersError,
    TargetDegreeTooLargeError,
    ValidationError,
)
from expanderlab.field import Field, parse_field
from expanderlab.poly import Poly, parse_poly
from expanderlab.rng import Xoshiro256StarStar

from oracles import expand_shifted_product, pointwise_double_loop, top_moment_weights

F5 = Field(5)
F13 = Field(13)


def elems(field, *ints):
    return [field.element(v) for v in ints]


def make_instance(field, g_text, h_text, A, B):
    return check_instance(field, parse_poly(g_text, field), parse_poly(h_text, field), A, B)


# -- elementary symmetric -----------------------------------------------------


def test_elementary_symmetric_frozen():
    e = elementary_symmetric(F5, elems(F5, 1, 2))
    assert [str(v) for v in e] == ["1", "3", "2"]


def test_elementary_symmetric_empty_and_single():
    assert [str(v) for v in elementary_symmetric(F5, [])] == ["1"]
    assert [str(v) for v in elementary_symmetric(F5, elems(F5, 4))] == ["1", "4"]


def test_elementary_symmetric_matches_expansion():
    # prod (w - c) = sum (-1)^r e_r w^(k-r); compare against Poly arithmetic.
    rng = random.Random(3)
    for _ in range(20):
        F = Field(rng.choice([5, 7, 13]))
        C = rng.sample(range(F.p), rng.randrange(0, min(5, F.p)))
        C = elems(F, *C)
        e = elementary_symmetric(F, C)
        prod = parse_poly("1", F)
        w = parse_poly("x", F)
        for c in C:
            prod = prod * (w - c)
        k = len(C)
        for r in range(k + 1):
            want = e[r] if r % 2 == 0 else -e[r]
            assert prod.coefficient(k - r) == want


# -- lambda coefficients ------------------------------------------------------


def test_lambda_frozen_values():
    g, h = parse_poly("x^2", F5), parse_poly("x", F5)
    lam = lambda_coefficients(elems(F5, 1, 2), g, h)
    expected = {(0, 0): 2, (1, 0): 2, (0, 1): 2, (2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert lam == {key: F5.element(v) for key, v in expected.items()}


def test_lambda_single_point():
    g, h = parse_poly("x^2", F5), parse_poly("x", F5)
    lam = lambda_coefficients(elems(F5, 3), g, h)
    assert lam == {(1, 0): F5.one(), (0, 1): F5.one(), (0, 0): F5.element(-3)}


def test_lambda_empty_c_is_the_empty_product():
    # A k = 0 certificate has C = [], and a checker recomputes lambda from C.
    g, h = parse_poly("x^2", F5), parse_poly("x", F5)
    assert lambda_coefficients([], g, h) == {(0, 0): F5.one()}
    with pytest.raises(EmptySetError):          # the solvers still need points
        solve_beta([])
    with pytest.raises(EmptySetError):
        solve_alpha([], h, b=1, target_degree=0)


def test_lambda_matches_bivariate_oracle():
    rng = random.Random(17)
    for _ in range(30):
        F = Field(rng.choice([5, 7, 11, 13]))
        k = rng.randrange(1, 7)
        C = elems(F, *rng.sample(range(F.p), min(k, F.p)))
        g, h = parse_poly("x^2", F), parse_poly("x", F)
        lam = lambda_coefficients(C, g, h)
        oracle = expand_shifted_product(C, F)
        keys = set(lam) | set(oracle)
        for key in keys:
            assert lam.get(key, F.zero()) == oracle.get(key, F.zero()), (F.p, C, key)


def test_lambda_rejects_repeats():
    g, h = parse_poly("x^2", F5), parse_poly("x", F5)
    with pytest.raises(InvalidParametersError):
        lambda_coefficients(elems(F5, 1, 1), g, h)


# -- beta ---------------------------------------------------------------------


def test_beta_frozen_example():
    B = elems(F5, 0, 1, 2)
    beta = solve_beta(B)
    assert {str(y): str(v) for y, v in beta.items()} == {"0": "3", "1": "4", "2": "3"}
    assert verify_beta(beta, B, 3)
    # The solver underneath takes and returns indices.
    weights = _dual_weights(F5, [0, 1, 2])
    assert weights == [3, 4, 3] and all(type(w) is int for w in weights)


def test_beta_single_point():
    beta = solve_beta(elems(F13, 7))
    assert list(beta.values()) == [F13.one()]
    assert verify_beta(beta, elems(F13, 7), 1)


def test_beta_matches_gauss_jordan_oracle():
    rng = random.Random(29)
    for _ in range(40):
        F = Field(rng.choice([5, 7, 11, 13]))
        b = rng.randrange(1, min(6, F.p + 1))
        B = elems(F, *rng.sample(range(F.p), b))
        beta = solve_beta(B)
        oracle = top_moment_weights(B, F)
        assert beta == oracle


def test_beta_extension_field():
    F9 = Field(3, 2)
    B = list(F9.subfield(1)) + [F9.parse_element("t")]
    beta = solve_beta(B)
    assert verify_beta(beta, B, len(B))
    assert set(beta) == set(B)


@pytest.mark.parametrize("text", ["2^4", "5^2", "3^3", "31^2"])
def test_verify_replays_the_solvers_on_extension_fields(text):
    F = parse_field(text)
    rng = random.Random(F.order)
    h = parse_poly("t*x+1", F)
    pool = [x for x in F.elements() if not h(x).is_zero()]
    for _ in range(8):
        B = rng.sample(F.elements(), rng.randint(1, 6))
        A, b = rng.sample(pool, rng.randint(1, 8)), rng.randint(1, 4)
        assert verify_beta(solve_beta(B), B, len(B))
        D = len(A) - 1 - rng.randrange(len(A))
        assert verify_alpha(solve_alpha(A, h, b, D), A, h, b, D)


def test_beta_perturbation_breaks_verification():
    B = elems(F5, 0, 1, 2)
    beta = solve_beta(B)
    y0 = next(iter(beta))
    beta[y0] = beta[y0] + F5.one()
    assert not verify_beta(beta, B, 3)


def test_solvers_reject_repeated_points():
    h = parse_poly("x", F5)
    with pytest.raises(InvalidParametersError):
        solve_beta(elems(F5, 1, 1, 2))
    with pytest.raises(InvalidParametersError):
        solve_alpha(elems(F5, 1, 1, 2), h, b=2, target_degree=2)
    # A repeat outside the alpha support is rejected too.
    with pytest.raises(InvalidParametersError):
        solve_alpha(elems(F5, 1, 2, 2), h, b=2, target_degree=0)


def test_solvers_refuse_points_of_two_fields():
    # F13(1) and F9(1) share the index 1, so only a field check tells them apart.
    mixed = [F13.one(), Field(3, 2).one()]
    with pytest.raises(FieldMismatchError, match=r"^B mixes elements of 13, 3\^2/t\^2\+1$"):
        solve_beta(mixed)
    with pytest.raises(FieldMismatchError, match=r"^A mixes elements of 13, 3\^2/t\^2\+1$"):
        solve_alpha(mixed, parse_poly("x", F13), b=1, target_degree=1)


def test_verify_beta_rejects_wrong_shape():
    B = elems(F5, 0, 1, 2)
    beta = solve_beta(B)
    assert not verify_beta(beta, B, 2)                  # b disagrees with |B|
    assert not verify_beta(beta, elems(F5, 0, 1), 2)    # missing point stays missing
    assert not verify_beta({}, [], 0)


# -- alpha ---------------------------------------------------------------------


def test_alpha_frozen_example():
    h = parse_poly("x", F5)
    A = elems(F5, 1, 2, 3, 4)
    alpha = solve_alpha(A, h, b=3, target_degree=2)
    assert {str(x): str(v) for x, v in alpha.items()} == \
        {"1": "3", "2": "1", "3": "2", "4": "0"}
    assert verify_alpha(alpha, A, h, 3, 2)


def test_alpha_support_convention():
    # Support lands on the first D + 1 elements in canonical order; zeros
    # appear explicitly for the rest.
    h = parse_poly("x", F13)
    A = elems(F13, 5, 1, 9, 3, 7)
    alpha = solve_alpha(A, h, b=2, target_degree=1)
    assert len(alpha) == 5
    as_str = {str(x): str(v) for x, v in alpha.items()}
    assert as_str == {"1": "6", "3": "11", "5": "0", "7": "0", "9": "0"}
    assert verify_alpha(alpha, A, h, 2, 1)


def test_alpha_target_degree_guard():
    h = parse_poly("x", F5)
    with pytest.raises(TargetDegreeTooLargeError):
        solve_alpha(elems(F5, 1, 2), h, b=2, target_degree=2)


def test_alpha_perturbation_breaks_verification():
    h = parse_poly("x", F5)
    A = elems(F5, 1, 2, 3, 4)
    alpha = solve_alpha(A, h, b=3, target_degree=2)
    x0 = next(iter(alpha))
    alpha[x0] = alpha[x0] + F5.one()
    assert not verify_alpha(alpha, A, h, 3, 2)
    # Malformed replays are refused, not raised: b < 1, a point missing
    # from alpha, a negative target degree.
    alpha = solve_alpha(A, h, b=3, target_degree=2)
    assert not verify_alpha(alpha, A, h, 0, 2)
    assert not verify_alpha({x: alpha[x] for x in A[1:]}, A, h, 3, 2)
    assert not verify_alpha(alpha, A, h, 3, -1)


def test_alpha_random_verification_sweep():
    rng = random.Random(31)
    for _ in range(30):
        F = Field(rng.choice([7, 11, 13]))
        h = parse_poly(rng.choice(["x", "x+1", "2*x+1", "1"]), F)
        pool = [x for x in F.elements() if not h(x).is_zero()]
        a = rng.randrange(1, len(pool) + 1)
        A = rng.sample(pool, a)
        b = rng.randrange(1, 5)
        D = rng.randrange(0, a)
        alpha = solve_alpha(A, h, b, D)
        assert verify_alpha(alpha, A, h, b, D)


def test_alpha_matches_gauss_jordan_oracle():
    # Gauss-Jordan on the support (the first D + 1 points of A by index),
    # explicit zeros on the rest.
    rng = random.Random(37)
    fields = [Field(p) for p in (5, 7, 11, 13)] + [Field(3, 2)]
    for _ in range(40):
        F = rng.choice(fields)
        h = parse_poly(rng.choice(["x", "x+1", "2*x+1", "1"]), F)
        pool = [x for x in F.elements() if not h(x).is_zero()]
        A = rng.sample(pool, rng.randrange(1, len(pool) + 1))
        b = rng.randrange(1, 5)
        D = rng.randrange(0, len(A))
        by_index = sorted(A, key=lambda x: x.index())
        oracle = top_moment_weights(by_index[:D + 1], F,
                                    scale=lambda x: h(x) ** (b - 1))
        oracle.update((x, F.zero()) for x in by_index[D + 1:])
        assert solve_alpha(A, h, b, D) == oracle, (str(F), str(h), b, D)


# -- certificates ---------------------------------------------------------------


def test_certificate_basic_f13():
    inst = make_instance(F13, "x^2", "x", elems(F13, 1, 2, 3, 4, 5, 6),
                         elems(F13, 0, 1, 2, 3))
    assert inst.bound_report().best_k == 5
    cert = build_certificate(inst, elems(F13, 0, 1, 2, 3, 4))
    assert cert.k == 5
    assert cert.identity_holds
    assert str(cert.predicted) == "10"          # binom(5,3) = 10, M = 1
    assert verify_beta(cert.beta, inst.B, 4)
    assert verify_alpha(cert.alpha, inst.A, inst.h, 4, 2 * (5 - 4 + 1))


def test_certificate_predicted_is_c_independent():
    inst = make_instance(F13, "x^2", "x", elems(F13, 1, 2, 3, 4, 5, 6),
                         elems(F13, 0, 1, 2, 3))
    rng = random.Random(41)
    seen = set()
    for _ in range(10):
        C = elems(F13, *rng.sample(range(13), 5))
        cert = build_certificate(inst, C)
        assert cert.identity_holds
        seen.add(str(cert.pointwise))
    assert seen == {"10"}


def test_certificate_every_admissible_k():
    inst = make_instance(F13, "x^2", "x", elems(F13, 1, 2, 3, 4, 5, 6),
                         elems(F13, 0, 1, 2, 3))
    for k in inst.bound_report().admissible_k:
        cert = build_certificate(inst, elems(F13, *range(k)))
        assert cert.identity_holds and cert.k == k
    # k = b-1 needs no x-moments beyond degree zero.
    cert = build_certificate(inst, elems(F13, 0, 1, 2))
    assert str(cert.predicted) == "1"


def test_certificate_b_equals_one():
    inst = make_instance(F13, "x^3", "1", elems(F13, 0, 1, 2, 3, 4, 5, 6),
                         elems(F13, 5))
    assert inst.bound_report().best_k == 2      # floor(6/3) + 0
    cert = build_certificate(inst, elems(F13, 4, 9))
    assert cert.identity_holds
    cert0 = build_certificate(inst, ())
    assert cert0.identity_holds and cert0.C == ()
    assert cert0.k == 0
    assert str(cert0.predicted) == "1"


def test_certificate_extension_field():
    F9 = Field(3, 2)
    A = [x for x in F9.elements() if not x.is_zero()]
    inst = make_instance(F9, "x^2", "x", A, F9.subfield(1))
    report = inst.bound_report()
    assert report.best_k == theorem_bound(8, 3, 2, 3).best_k == 5
    C = [F9.from_index(i) for i in range(5)]
    cert = build_certificate(inst, C)
    assert cert.identity_holds


def test_certificate_nontrivial_leading_coefficient():
    inst = make_instance(F13, "3*x^2+x", "x+1", elems(F13, 1, 2, 3, 4, 5, 6),
                         elems(F13, 0, 1, 2))
    k = inst.bound_report().best_k
    assert k == 4
    cert = build_certificate(inst, elems(F13, 0, 1, 2, 3))
    M = F13.element(3)
    assert cert.predicted == binomial_in_field(F13, k, 2) * M ** (k - 2)
    assert cert.identity_holds


def test_certificate_inadmissible_k():
    inst = make_instance(F5, "x^2", "x", elems(F5, 1, 2, 3, 4), elems(F5, 0, 1))
    # range: k_max = floor(3/2) + 1 = 2
    with pytest.raises(InadmissibleKError) as e:
        build_certificate(inst, elems(F5, 0, 1, 2, 3))
    assert e.value.reason == "range"
    assert "range" in str(e.value)
    # lucas: binom(3, 1) = 3 = 0 mod 3, with k = 3 still inside the range.
    F3 = Field(3)
    inst3 = make_instance(F3, "x", "1", elems(F3, 0, 1, 2), elems(F3, 0, 1))
    with pytest.raises(InadmissibleKError) as e:
        build_certificate(inst3, elems(F3, 0, 1, 2))
    assert e.value.reason == "lucas"
    assert "Lucas" in str(e.value)


def test_certificate_reads_the_range_in_closed_form(monkeypatch):
    # The admissible range needs no bound report: no theorem_bound call,
    # and so no repeated primality test of p.
    def refuse(*args):
        raise AssertionError("theorem_bound called")

    monkeypatch.setattr(bound_mod, "theorem_bound", refuse)
    inst = make_instance(F5, "x^2", "x", elems(F5, 1, 2, 3, 4), elems(F5, 0, 1))
    assert build_certificate(inst, elems(F5, 0, 1)).identity_holds
    with pytest.raises(InadmissibleKError, match=r"^k = 4 fails the range condition \[1, 2\]$"):
        build_certificate(inst, elems(F5, 0, 1, 2, 3))
    F3 = Field(3)
    inst3 = make_instance(F3, "x", "1", elems(F3, 0, 1, 2), elems(F3, 0, 1))
    with pytest.raises(InadmissibleKError, match=r"^k = 3 fails the Lucas condition: "
                                                 r"binom\(3, 1\) vanishes in characteristic 3$"):
        build_certificate(inst3, elems(F3, 0, 1, 2))


def test_certificate_rejects_repeated_c():
    inst = make_instance(F13, "x^2", "x", elems(F13, 1, 2, 3, 4), elems(F13, 0, 1))
    with pytest.raises(InvalidParametersError):
        build_certificate(inst, elems(F13, 1, 1))


def test_degree_side_condition_strict():
    # For j > b-1 and i + j <= k the x-degree of g^i h^(j-b+1) must fall
    # strictly below D = d(k-b+1); this is what kills the uncontrolled
    # beta moments.
    for d, e, b, k in ((2, 1, 3, 7), (3, 2, 2, 5), (5, 0, 4, 9), (2, 0, 1, 3)):
        D = d * (k - b + 1)
        for j in range(b, k + 1):
            for i in range(0, k - j + 1):
                assert i * d + (j - b + 1) * e < D, (d, e, b, k, i, j)


def test_certificate_weights_come_from_the_public_solvers(monkeypatch):
    # One weight path: a certify run calls solve_beta and solve_alpha once
    # each, and its stdout keeps its pinned digest.
    calls = []
    for name in ("solve_beta", "solve_alpha"):
        solver = getattr(certificate_mod, name)
        monkeypatch.setattr(certificate_mod, name, lambda *args, name=name, solver=solver:
                            calls.append(name) or solver(*args))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["certify", "--field", "13", "--g", "x^2", "--h", "x",
                     "--A", "1,2,3,4,5,6", "--B", "0,1,2,3", "--seed", "7"])
    assert code == 0 and calls == ["solve_beta", "solve_alpha"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "41ac5a701fd927d21982e5d751e88c690dd1a403b1ceebe7c547577ea0d9dad7")


def test_hand_built_instance_with_a_repeated_point_is_bad_input():
    # check_instance never builds this.  Taken as it is, A = (1, 1, 2, 3, 4)
    # breaks the identity (predicted 2, pointwise 9), so it is bad input.
    inst = ExpanderInstance(F13, parse_poly("x^2", F13), parse_poly("x", F13),
                            tuple(elems(F13, 1, 1, 2, 3, 4)), tuple(elems(F13, 0, 1)))
    for build in (build_certificate, refute_cover):
        with pytest.raises(InvalidParametersError, match="A contains duplicate elements"):
            build(inst, elems(F13, 0, 5))


@pytest.mark.parametrize("g, h, degrees", [
    ("3", "1", "deg g = 0, deg h = 0"),                   # was ZeroDivisionError
    ("0", "1", "g is the zero polynomial, deg h = 0"),    # was a range [1, 0.0]
    ("x", "x", "deg g = 1, deg h = 1"),                   # was identity_holds False
])
@pytest.mark.parametrize("build", [build_certificate, refute_cover])
def test_hand_built_instance_with_bad_degrees_is_bad_input(g, h, degrees, build):
    inst = ExpanderInstance(F13, parse_poly(g, F13), parse_poly(h, F13),
                            tuple(elems(F13, 1, 2, 3, 4)), tuple(elems(F13, 0, 1)))
    with pytest.raises(InvalidParametersError, match=rf"need deg g > deg h .* \(got {degrees}\)$"):
        build(inst, elems(F13, 0, 1, 2, 3))


def test_repeated_points_are_refused_before_the_field_size_invariant():
    # Five copies of 1 make k = 2 admissible over F_2, beyond |F| - 1 = 1; the
    # solvers refuse the repeated A first, so it is bad input, not a bug.
    F2 = Field(2)
    inst = ExpanderInstance(F2, parse_poly("x^2", F2), parse_poly("1", F2),
                            tuple(elems(F2, 1, 1, 1, 1, 1)), tuple(elems(F2, 0)))
    with pytest.raises(InvalidParametersError, match="A contains duplicate elements"):
        build_certificate(inst, elems(F2, 0, 1))


@pytest.mark.parametrize("fault, points", [("is empty", ()),
                                           ("contains duplicate elements", (1, 1, 2))])
def test_a_point_set_fault_reads_one_way_everywhere(fault, points):
    # One check refuses an empty or repeated point set, whichever call it
    # comes in through.  A hand-built instance names its A or B before its k
    # is checked, which the empty sets alone would fail.  An empty C is the
    # k = 0 product, so lambda_coefficients sees only the repeated point.
    g, h = parse_poly("x^2", F13), parse_poly("x", F13)
    S, A, B = tuple(elems(F13, *points)), tuple(elems(F13, 1, 2)), tuple(elems(F13, 0, 1))
    calls = [("A", lambda: check_instance(F13, g, h, S, B)),
             ("B", lambda: solve_beta(S)),
             ("A", lambda: solve_alpha(S, h, 2, 0)),
             ("A", lambda: build_certificate(ExpanderInstance(F13, g, h, S, B), B)),
             ("B", lambda: build_certificate(ExpanderInstance(F13, g, h, A, S), ()))]
    if S:
        calls += [("C", lambda: lambda_coefficients(S, g, h))]
    for name, call in calls:
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value).removeprefix("invalid instance: ") == f"{name} {fault}", name


def test_certificate_json_schema():
    inst = make_instance(F13, "x^2", "x", elems(F13, 1, 2, 3, 4), elems(F13, 0, 1))
    cert = build_certificate(inst, elems(F13, 0, 1))
    d = cert.to_dict()
    assert list(d) == ["field", "g", "h", "A", "B", "C", "alpha", "beta",
                       "predicted", "pointwise", "identity_holds"]
    assert d["field"] == "13"
    assert d["g"] == "x^2"
    assert d["identity_holds"] is True
    assert set(d["alpha"]) == {"1", "2", "3", "4"}
    assert all(isinstance(v, str) for v in d["alpha"].values())


def test_master_identity_random_sweep():
    rng = random.Random(20260816)
    primes = [3, 5, 7, 11, 13]
    for _ in range(60):
        p = rng.choice(primes)
        F = Field(p)
        d = rng.randrange(1, 4)
        e = rng.randrange(0, d)
        g_c = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        h_c = [rng.randrange(p) for _ in range(e)] + [rng.randrange(1, p)]
        g, h = Poly(F, g_c), Poly(F, h_c)
        pool = [x for x in F.elements() if not h(x).is_zero()]
        if not pool:
            continue
        A = rng.sample(pool, rng.randrange(1, len(pool) + 1))
        B = rng.sample(F.elements(), rng.randrange(1, p + 1))
        inst = check_instance(F, g, h, A, B)
        k = inst.bound_report().best_k
        cert = None
        for C in (rng.sample(F.elements(), k), rng.sample(F.elements(), k)):
            prev = cert
            cert = build_certificate(inst, C)
            assert cert.identity_holds, (p, str(g), str(h))
            if prev is not None:
                assert cert.predicted == prev.predicted


@pytest.mark.parametrize("field", [Field(7), F13, Field(3, 2),
                                   Field(2, 4), Field(5, 2),
                                   Field(31, 2)])
def test_pointwise_sum_matches_double_loop_oracle(field):
    # Random weights, about a third of them zero, so the sum is not the
    # collapsed constant the solver weights always give.
    rng = random.Random(field.order)
    g, h = parse_poly("x^3+2*x", field), parse_poly("x+1", field)
    els = field.elements()
    for _ in range(20):
        A, B, C = (rng.sample(els, rng.randint(1, 5)) for _ in range(3))
        alpha = {x: els[rng.randrange(field.order)] if rng.random() > 1 / 3
                 else field.zero() for x in A}
        beta = {y: els[rng.randrange(field.order)] if rng.random() > 1 / 3
                else field.zero() for y in B}
        want = pointwise_double_loop(field, g, h, A, B, C, alpha, beta)
        assert _pointwise_sum(g, h, alpha, beta, C) == want


# -- refutation ---------------------------------------------------------------


def test_refute_cover_finds_witness():
    inst = make_instance(F13, "x^2", "x", elems(F13, 1, 2, 3, 4, 5, 6),
                         elems(F13, 0, 1, 2, 3))
    C = elems(F13, 0, 1, 2, 3, 4)
    rep = refute_cover(inst, C)
    assert rep.covers is False
    assert rep.certificate.identity_holds
    # First escaping pair in canonical (x, y) order: x=1 yields 1..4, all
    # inside C; x=2, y=1 yields 4+2 = 6.
    assert (str(rep.witness_x), str(rep.witness_y)) == ("2", "1")
    assert str(rep.witness_value) == "6"
    w = inst.g(rep.witness_x) + rep.witness_y * inst.h(rep.witness_x)
    assert w == rep.witness_value
    assert rep.witness_value not in set(C)
    d = rep.to_dict()
    assert d["covers"] is False and d["witness_value"] == "6"


def test_solve_alpha_refuses_bad_parameters():
    h = parse_poly("x", F13)
    with pytest.raises(InvalidParametersError, match="need b >= 1, got 0"):
        solve_alpha(elems(F13, 1, 2, 3), h, 0, 1)
    with pytest.raises(InvalidParametersError, match="target degree must be >= 0, got -1"):
        solve_alpha(elems(F13, 1, 2, 3), h, 2, -1)
    with pytest.raises(InvalidParametersError, match="h vanishes at 0"):
        solve_alpha(elems(F13, 2, 0, 1), h, 2, 1)


def test_lambda_coefficients_refuse_mixed_fields():
    with pytest.raises(FieldMismatchError, match="different fields"):
        lambda_coefficients([], parse_poly("x^2", F13), parse_poly("x", F5))


def test_binomial_outside_zero_to_k_is_zero():
    assert binomial_in_field(F13, 2, 3) == 0
    assert binomial_in_field(F13, 2, -1) == 0
    assert binomial_in_field(F5, 7, 2) == 1     # 21 mod 5


def test_refute_cover_rejects_oversized_c():
    inst = make_instance(F13, "x^2", "x", elems(F13, 1, 2, 3, 4), elems(F13, 0, 1))
    with pytest.raises(InadmissibleKError):
        refute_cover(inst, elems(F13, *range(10)))


@pytest.mark.parametrize("a, b", [(8, 3), (64, 12)])
def test_certificate_builds_index_tables_once(monkeypatch, a, b):
    # On 2^16 a certificate of any size builds the tables once, on its
    # first index op, and a second certificate reuses them.
    calls = []
    build = extension_module._build_tables
    monkeypatch.setattr(extension_module, "_build_tables",
                        lambda field: calls.append(field) or build(field))
    F = parse_field("2^16")
    rng = Xoshiro256StarStar(1)
    inst = make_instance(F, "x^2", "x",
                         [F.from_index(i + 1) for i in rng.sample_indices(F.order - 1, a)],
                         [F.from_index(i) for i in rng.sample_indices(F.order, b)])
    k = inst.bound_report().best_k
    for _ in range(2):
        C = [F.from_index(i) for i in rng.sample_indices(F.order, k)]
        assert build_certificate(inst, C).identity_holds
    assert calls == [F]
