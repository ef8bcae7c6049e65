"""Built-in end-to-end checks runnable from the CLI without pytest.

Each check recomputes a known answer or replays an internal identity
through the public API and reports (name, ok, detail).  Everything is
deterministic: fixed seeds, fixed fields, no clock and no environment
reads, so one failing line always reproduces.
"""

from __future__ import annotations

import itertools

from . import bound as bound_mod
from .bound import INF, check_instance, corollary_bound, theorem_bound
from .certificate import build_certificate, refute_cover, verify_alpha, verify_beta
from .explore import records_to_csv, search_extremal, subfield_experiment
from .field import extension_field, prime_field
from .poly import parse_poly
from .rng import Xoshiro256StarStar


def _check_field_axioms():
    for field in (prime_field(7), extension_field(2, 3), extension_field(3, 2)):
        elems = field.elements()
        for a in elems:
            for b in elems:
                if (a + b) - b != a:
                    return False, f"addition not invertible in {field}"
                if not b.is_zero() and (a * b) / b != a:
                    return False, f"multiplication not invertible in {field}"
        for a in elems:
            if a * (a + field.one()) != a * a + a:
                return False, f"distributivity fails in {field}"
        q = field.order
        for a in elems:
            if a ** q != a:
                return False, f"x^q != x in {field}"
    return True, "7, 2^3, 3^2"


def _check_lucas_pascal():
    for p in (2, 3, 5, 7):
        row = [1]
        for k in range(40):
            for r in range(k + 1):
                want = row[r] % p != 0
                if bound_mod.lucas_nonvanishing(k, r, p) != want:
                    return False, f"disagrees at k={k} r={r} p={p}"
            row = [1] + [(row[i] + row[i + 1]) % p
                         for i in range(len(row) - 1)] + [1]
    return True, "k < 40, p in {2,3,5,7}"


def _check_bound_examples():
    cases = (
        ((6, 4, 2, 13), 6),
        ((4, 3, 2, 5), 4),
        ((1, 7, 3, 5), 7),
        ((7, 2, 1, 3), 8),
        ((100, 5, 3, INF), 38),
    )
    for args, want in cases:
        got = theorem_bound(*args).bound
        if got != want:
            return False, f"theorem_bound{args} = {got}, expected {want}"
    for args, want in (((6, 4, 2, 13), 6), ((6, 7, 2, 7), 7),
                       ((1, 1, 5, INF), 1), ((5, 2, 2, INF), 3)):
        got = corollary_bound(*args)
        if got != want:
            return False, f"corollary_bound{args} = {got}, expected {want}"
    rng = Xoshiro256StarStar(1)
    for _ in range(500):
        a = 1 + rng.bounded(50)
        b = 1 + rng.bounded(15)
        d = 1 + rng.bounded(5)
        p = (2, 3, 5, 7, 11, 13, INF)[rng.bounded(7)]
        if theorem_bound(a, b, d, p).bound < corollary_bound(a, b, d, p):
            return False, f"closed form exceeds theorem_bound at {(a, b, d, p)}"
    return True, "frozen examples and 500 random dominations"


def _f13_instance():
    F13 = prime_field(13)
    return check_instance(F13, parse_poly("x^2", F13), parse_poly("x", F13),
                          range(1, 7), range(4))


def _check_certificates():
    inst, violations = _f13_instance()
    if violations:
        return False, f"unexpected violations: {violations}"
    cert = build_certificate(inst, range(5))
    if not cert.identity_holds or str(cert.predicted) != "10":
        return False, "F_13 certificate identity failed"
    if not verify_beta(cert.beta, inst.B, 4):
        return False, "beta verification failed"
    if not verify_alpha(cert.alpha, inst.A, inst.h, 4, 4):
        return False, "alpha verification failed"
    F9 = extension_field(3, 2)
    A9 = [x for x in F9.elements() if not x.is_zero()]
    inst9, violations = check_instance(
        F9, parse_poly("x^2", F9), parse_poly("x", F9), A9, F9.subfield(1))
    if violations:
        return False, f"unexpected violations: {violations}"
    cert9 = build_certificate(inst9, [F9.from_index(i) for i in range(5)])
    if not cert9.identity_holds:
        return False, "F_9 certificate identity failed"
    return True, "F_13 and F_9 identities replayed"


def _check_refutation():
    inst, _ = _f13_instance()
    rep = refute_cover(inst, range(5))
    value = inst.g(rep.witness_x) + rep.witness_y * inst.h(rep.witness_x)
    if rep.covers or value != rep.witness_value or rep.witness_value in set(rep.certificate.C):
        return False, "witness does not escape C"
    return True, f"witness x={rep.witness_x} y={rep.witness_y}"


def _check_soundness_sweep():
    F = prime_field(5)
    g, h = parse_poly("x^2", F), parse_poly("x", F)
    elems = F.elements()
    nonzero = [x for x in elems if not x.is_zero()]
    checked = 0
    for a in (1, 2, 3):
        for b in (1, 2):
            for A in itertools.combinations(nonzero, a):
                for B in itertools.combinations(elems, b):
                    inst, violations = check_instance(F, g, h, A, B)
                    if violations:
                        return False, f"unexpected violations: {violations}"
                    if len(bound_mod.image(inst)) < inst.bound_report().bound:
                        return False, f"bound violated at A={A} B={B}"
                    checked += 1
    return True, f"{checked} exhaustive instances over F_5"


def _check_search_determinism():
    cfg = dict(field="5", g="x^2", h="x", a=(1, 2), b=(1, 2))
    one = records_to_csv(search_extremal(**cfg, parallelism=1))
    two = records_to_csv(search_extremal(**cfg, parallelism=2))
    if one != two:
        return False, "worker count changed the output"
    return True, f"{one.count(chr(10)) - 1} records, workers 1 vs 2"


def _check_subfield_baseline():
    recs = subfield_experiment("3^2", 1, "1/2")
    base = recs[0]
    if base.image_size != 3 or base.slack != 0 or base.subfield_distance != 0:
        return False, "baseline B = K should reproduce K exactly"
    floor_proved = (4 + 1) * 3 // 4 - 1    # floor((1 + c/2) * 3 - 1) at c = 1/2
    for r in recs[1:]:
        if r.proved_threshold != floor_proved:
            return False, f"proved threshold {r.proved_threshold} != {floor_proved}"
        if r.image_size < r.proved_threshold:
            return False, f"growth below proved threshold for B={r.B}"
    return True, "F_9 over its prime subfield"


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
    """Run every embedded check; never raises, failures come back as rows."""
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
