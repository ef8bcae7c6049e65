"""Built-in end-to-end checks runnable from the CLI without pytest.

Each check recomputes a known answer or replays an internal identity
through the public API.  It returns its PASS detail, or raises at the
first equation that does not hold, which it names with the values it was
checked at; :func:`run_selftest` turns each outcome into a
(name, ok, detail) row.  Everything is deterministic: fixed seeds, fixed
fields, no clock and no environment reads, so one failing line always
reproduces.
"""

from __future__ import annotations

import itertools

from . import bound as bound_mod
from .bound import INF, corollary_bound, theorem_bound
from .certificate import build_certificate, refute_cover, verify_alpha, verify_beta
from .explore import records_to_csv, search_extremal, subfield_experiment
from .field import Field
from .instance import check_instance
from .poly import parse_poly
from .rng import Xoshiro256StarStar


class _Mismatch(Exception):
    """An equation a check replays did not hold; the message is the equation."""


def _expect(ok, equation: str, *args) -> None:
    """Raise :class:`_Mismatch` with ``equation.format(*args)`` unless ``ok``.
    The text is built only on failure, so a check in a loop pays one call."""
    if not ok:
        raise _Mismatch(equation.format(*args))


def _check_field_axioms():
    for F in (Field(7), Field(2, 3), Field(3, 2)):
        elems = F.elements()
        for a in elems:
            _expect(a * (a + F.one()) == a * a + a, "a(a + 1) = a^2 + a at a = {} in F_{}", a, F)
            _expect(a ** F.order == a, "a^{} = a at a = {} in F_{}", F.order, a, F)
            for b in elems:
                _expect((a + b) - b == a, "(a + b) - b = a at a = {}, b = {} in F_{}", a, b, F)
                _expect(b.is_zero() or (a * b) / b == a,
                        "(a * b) / b = a at a = {}, b = {} in F_{}", a, b, F)
    return "7, 2^3, 3^2"


def _check_lucas_pascal():
    for p in (2, 3, 5, 7):
        row = [1]                       # binom(k, r) mod p for r = 0 .. k
        for k in range(40):
            for r in range(k + 1):
                _expect(bound_mod.lucas_nonvanishing(k, r, p) == (row[r] != 0),
                        "lucas_nonvanishing({0}, {1}, {2}) = (binom({0}, {1}) mod {2} != 0)",
                        k, r, p)
            row = [1] + [(row[i] + row[i + 1]) % p
                         for i in range(len(row) - 1)] + [1]
    return "k < 40, p in {2,3,5,7}"


def _check_bound_examples():
    for args, want in (((6, 4, 2, 13), 6), ((4, 3, 2, 5), 4), ((1, 7, 3, 5), 7),
                       ((7, 2, 1, 3), 8), ((100, 5, 3, INF), 38)):
        _expect(theorem_bound(*args).bound == want, "theorem_bound{}.bound = {}", args, want)
    for args, want in (((6, 4, 2, 13), 6), ((6, 7, 2, 7), 7),
                       ((1, 1, 5, INF), 1), ((5, 2, 2, INF), 3)):
        _expect(corollary_bound(*args) == want, "corollary_bound{} = {}", args, want)
    rng = Xoshiro256StarStar(1)
    for _ in range(500):
        args = (1 + rng.bounded(50), 1 + rng.bounded(15), 1 + rng.bounded(5),
                (2, 3, 5, 7, 11, 13, INF)[rng.bounded(7)])
        _expect(theorem_bound(*args).bound >= corollary_bound(*args),
                "theorem_bound{0}.bound >= corollary_bound{0}", args)
    return "frozen examples and 500 random dominations"


def _f13_instance():
    F13 = Field(13)
    return check_instance(F13, parse_poly("x^2", F13), parse_poly("x", F13),
                          range(1, 7), range(4))


def _check_certificates():
    inst = _f13_instance()
    cert = build_certificate(inst, range(5))
    _expect(str(cert.predicted) == "10", "binom(5, 3) * M^2 = 10 in F_13")
    _expect(cert.identity_holds, "pointwise = predicted: {} = {} in F_13",
            cert.pointwise, cert.predicted)
    _expect(verify_beta(cert.beta, inst.B, 4), "sum_y beta(y) y^j = [j = 3] for j = 0 .. 3")
    _expect(verify_alpha(cert.alpha, inst.A, inst.h, 4, 4),
            "sum_x alpha(x) h(x)^3 x^i = [i = 4] for i = 0 .. 4")
    F9 = Field(3, 2)
    A9 = [x for x in F9.elements() if not x.is_zero()]
    inst9 = check_instance(F9, parse_poly("x^2", F9), parse_poly("x", F9), A9, F9.subfield(1))
    cert9 = build_certificate(inst9, [F9.from_index(i) for i in range(5)])
    _expect(cert9.identity_holds, "pointwise = predicted: {} = {} in F_{}",
            cert9.pointwise, cert9.predicted, F9)
    return "F_13 and F_9 identities replayed"


def _check_refutation():
    inst = _f13_instance()
    rep = refute_cover(inst, range(5))
    x, y, v = rep.witness_x, rep.witness_y, rep.witness_value
    _expect(inst.g(x) + y * inst.h(x) == v, "g({0}) + {1} * h({0}) = {2}", x, y, v)
    _expect(v not in rep.certificate.C, "{} not in C = 0 .. 4", v)
    return f"witness x={x} y={y}"


def _check_soundness_sweep():
    F = Field(5)
    g, h = parse_poly("x^2", F), parse_poly("x", F)
    checked = 0
    for a, b in itertools.product((1, 2, 3), (1, 2)):
        for A in itertools.combinations(range(1, 5), a):
            for B in itertools.combinations(range(5), b):
                inst = check_instance(F, g, h, A, B)
                bound = inst.bound_report().bound
                _expect(len(bound_mod.image(inst)) >= bound,
                        "|f(A, B)| >= {} at A = {}, B = {}", bound, A, B)
                checked += 1
    return f"{checked} exhaustive instances over F_5"


def _check_search_determinism():
    cfg = dict(field="5", g="x^2", h="x", a=(1, 2), b=(1, 2))
    one = records_to_csv(search_extremal(**cfg, parallelism=1))
    two = records_to_csv(search_extremal(**cfg, parallelism=2))
    _expect(one == two, "CSV at parallelism 1 = CSV at parallelism 2")
    return f"{one.count(chr(10)) - 1} records, workers 1 vs 2"


def _check_subfield_baseline():
    recs = subfield_experiment("3^2", 1, "1/2")
    base = recs[0]
    _expect((base.image_size, base.slack, base.subfield_distance) == (3, 0, 0),
            "(image_size, slack, subfield_distance) = (3, 0, 0) at B = K")
    floor_proved = (4 + 1) * 3 // 4 - 1    # floor((1 + c/2) * 3 - 1) at c = 1/2
    for r in recs[1:]:
        _expect(r.proved_threshold == floor_proved, "proved_threshold = {} at B = {}",
                floor_proved, r.B)
        _expect(r.image_size >= floor_proved, "image_size >= {} at B = {}", floor_proved, r.B)
    return "F_9 over its prime subfield"


CHECKS = (
    ("field-axioms", _check_field_axioms),
    ("lucas-vs-pascal", _check_lucas_pascal),
    ("bound-examples", _check_bound_examples),
    ("certificate-identities", _check_certificates),
    ("refutation-witness", _check_refutation),
    ("soundness-sweep", _check_soundness_sweep),
    ("search-determinism", _check_search_determinism),
    ("subfield-baseline", _check_subfield_baseline),
)


def run_selftest() -> list[tuple[str, bool, str]]:
    """Run every embedded check; never raises, failures come back as rows
    whose detail is the equation that failed, or "raised <Type>: <message>"
    for a check that crashed."""
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = True, fn()
        except _Mismatch as exc:
            ok, detail = False, str(exc)
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
