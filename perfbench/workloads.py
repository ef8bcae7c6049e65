"""The benchmark's four workloads: command lines, inputs and output checks.

Every workload is one ``python -m expanderlab`` subcommand.  Sizes are
scaled so that one invocation takes about a second on a 2-core box: long
enough that the layer the workload targets dominates interpreter start-up,
short enough that one run collects a dozen or more invocations.  README.md
in this directory records why each workload was chosen.

``full`` is what the benchmark measures; ``small`` is the same workloads at
toy size, for the smoke test.  Recorded digests and values come from the
commit that introduced the benchmark, whose output the roadmap promises to
keep byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

from expanderlab.rng import Xoshiro256StarStar

CERTIFY_FIELD = 251


@dataclass(frozen=True)
class Workload:
    """One workload at one size.

    ``argv(seed)`` gives the CLI arguments; ``check(argv, stdout, stderr)``
    returns None when the output is correct, else a one-line reason.
    ``setup`` is (field, *polynomials): what an invocation builds before its
    first pair or equation.  ``unit`` names what one CSV row counts, for the
    throughput line of the report, or is None when the output is not CSV.
    """

    name: str
    argv: Callable[[int], list[str]]
    check: Callable[[list[str], bytes, bytes], str | None]
    setup: tuple[str, ...]
    unit: str | None = None


def _digest_check(sha256: str):
    def check(argv, stdout, stderr):
        got = hashlib.sha256(stdout).hexdigest()
        if got != sha256:
            return f"stdout sha256 {got[:16]}... differs from the recorded {sha256[:16]}..."
        return None
    return check


def search_workload(field: str, a: str, b: str, sha256: str) -> Workload:
    argv = ["search", "--field", field, "--g", "x^2", "--h", "x",
            "--a", a, "--b", b]
    return Workload("search-exhaustive", lambda seed: list(argv),
                    _digest_check(sha256), (field, "x^2", "x"), "pairs")


def subfield_workload(field: str, theta_count: int, sha256: str) -> Workload:
    argv = ["subfield", "--field", field, "--m", "1", "--c-fraction", "1/2",
            "--theta-count", str(theta_count), "--seed", "0"]
    return Workload("subfield-sweep", lambda seed: list(argv),
                    _digest_check(sha256), (field, "x^2", "x"), "records")


def certify_inputs(seed: int, a: int, b: int) -> tuple[list[int], list[int], int]:
    """A (nonzero, since h = x vanishes at 0), B and the CLI's --seed for C,
    all drawn from the workload seed with the program's own generator."""
    rng = Xoshiro256StarStar(seed)
    A = [i + 1 for i in rng.sample_indices(CERTIFY_FIELD - 1, a)]
    B = list(rng.sample_indices(CERTIFY_FIELD, b))
    return A, B, rng.bounded(1 << 31)


def _certify_argv(a: int, b: int):
    def argv(seed):
        A, B, c_seed = certify_inputs(seed, a, b)
        return ["certify", "--field", str(CERTIFY_FIELD), "--g", "x^2", "--h", "x",
                "--A", ",".join(map(str, A)), "--B", ",".join(map(str, B)),
                "--seed", str(c_seed)]
    return argv


def _check_certificate(argv, stdout, stderr):
    """Keys, not bytes: later certificates may carry more keys."""
    A = argv[argv.index("--A") + 1].split(",")
    B = argv[argv.index("--B") + 1].split(",")
    try:
        cert = json.loads(stdout)
        C = cert["C"]
        if cert["A"] != A or cert["B"] != B:
            return "certificate A or B differs from the input"
        if cert["identity_holds"] is not True:
            return "identity_holds is not true"
        predicted = cert["predicted"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"certificate JSON unreadable: {exc!r}"
    if b"PASS" not in stderr:
        return "no PASS line on stderr"
    a, b, p = len(A), len(B), CERTIFY_FIELD
    # Largest admissible k for deg g = 2, by the binomial itself, not Lucas.
    want_k = max(k for k in range(b - 1, (a - 1) // 2 + b) if math.comb(k, b - 1) % p)
    if len(C) != want_k or len(set(C)) != len(C):
        return f"|C| = {len(C)} distinct {len(set(C))}, expected {want_k} distinct"
    # M = 1 for g = x^2, so the collapsed sum is binom(k, b - 1) mod p.
    if predicted != str(math.comb(want_k, b - 1) % p):
        return f"predicted {predicted} is not binom({want_k}, {b - 1}) mod {p}"
    return None


def certify_workload(a: int, b: int) -> Workload:
    return Workload("certify-solve", _certify_argv(a, b), _check_certificate,
                    (str(CERTIFY_FIELD), "x^2", "x"))


def bound_workload(a: int, b: int, bound: int, best_k: int) -> Workload:
    argv = ["bound", "--field", "2", "--a", str(a), "--b", str(b), "--d", "1"]

    def check(argv, stdout, stderr):
        try:
            report = json.loads(stdout)
            got = (report["bound"], report["best_k"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"bound JSON unreadable: {exc!r}"
        if got != (bound, best_k):
            return f"(bound, best_k) = {got}, recorded {(bound, best_k)}"
        return None
    return Workload("bound-scan", lambda seed: list(argv), check, ("2",))


SIZES = {
    "full": (
        search_workload("13", "2-3", "2",
                        "43a2203e8b7e8b2e61f0fa1ec590310574e6c51da9c186e13941df147d977698"),
        subfield_workload("31^2", 200,
                          "6d57d984a1213a8ff6ba77be2425b1b1e9f0060973d13029d2c47af643e7cdb3"),
        certify_workload(64, 12),
        bound_workload(1_000_000, 1000, 1000448, 1000447),
    ),
    "small": (
        search_workload("7", "2", "2",
                        "9cc3430f172a4659b8c9a27574956657f80ffc71b091d16e872f6240785ac765"),
        subfield_workload("5^2", 5,
                          "c0c6f56db5b40305f2b6b056899e0c5bffb541bf7d6361b9c2f598ab2ac9e337"),
        certify_workload(16, 4),
        bound_workload(1000, 10, 1008, 1007),
    ),
}

def workload(name: str, size: str = "full") -> Workload:
    return next(w for w in SIZES[size] if w.name == name)
