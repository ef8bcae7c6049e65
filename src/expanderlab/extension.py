"""What only an extension field F_{p^n}, n > 1, runs: its modulus, the
irreducibility test and the exp/log/Zech tables behind its index ops.
:class:`~expanderlab.field.Field` imports this module only for n > 1, so an
invocation over a prime field never compiles it.
"""

from __future__ import annotations

import itertools

from .bound import is_prime
from .errors import InternalInvariantError, InvalidParametersError
from .field import FieldElem, _int_coeffs, _parse_terms, _power, _render_terms

# Raw coefficient lists over F_p (index = degree), multiplied and reduced only
# to test a modulus and to fill an extension's tables.


def _vec_trim(u: list[int]) -> list[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _vec_mul(u: list[int], v: list[int], p: int) -> list[int]:
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
    return _vec_trim(out)


def _vec_mod(u: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of u modulo a monic m."""
    r = [c % p for c in u]
    _vec_trim(r)
    dm = len(m) - 1
    while len(r) - 1 >= dm:
        shift = len(r) - 1 - dm
        lead = r[-1]
        for i, c in enumerate(m):
            r[shift + i] = (r[shift + i] - lead * c) % p
        _vec_trim(r)
    return r


def _vec_eval(u: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(u):
        acc = (acc * x + c) % p
    return acc


def _is_irreducible(m: list[int], p: int) -> bool:
    """Brute-force irreducibility of monic m, deg m >= 2: root check, then trial division."""
    n = len(m) - 1
    if any(_vec_eval(m, x, p) == 0 for x in range(p)):
        return False
    if n <= 3:
        return True  # a reducible cubic or quadratic has a linear factor
    for deg in range(2, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            cand = list(tail) + [1]
            if not _vec_mod(m, cand, p):
                return False
    return True


def _smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First irreducible monic polynomial of degree n >= 2, coefficient
    tuples ordered low-degree-first.  The scan starts at constant term 1:
    x divides every candidate with constant term 0."""
    for tail in itertools.product(range(1, p), *[range(p)] * (n - 1)):
        cand = list(tail) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise InternalInvariantError(f"no irreducible polynomial of degree {n} over F_{p}")


def _modulus(p: int, n: int, modulus) -> tuple[int, ...]:
    """The modulus of F_{p^n}: the smallest irreducible when ``modulus`` is
    None, else ``modulus``, its text or a list or tuple of ints read to
    ints mod p by :func:`~expanderlab.field._int_coeffs`, checked to be
    monic, of degree n and irreducible."""
    if modulus is None:
        return _smallest_irreducible(p, n)
    if isinstance(modulus, str):
        terms = _parse_terms(modulus, "t", int)
        modulus = [terms.get(e, 0) for e in range(max(terms) + 1)]
    modulus = _int_coeffs(modulus, p)
    if len(modulus) != n + 1 or not modulus[-1]:     # degree as written: a term 0 mod p counts
        raise InvalidParametersError(
            f"modulus must be monic of degree {n}, got degree {len(modulus) - 1}")
    if modulus[-1] != 1:
        raise InvalidParametersError(f"modulus {_render_terms(modulus, 't')} is not monic")
    if not _is_irreducible(list(modulus), p):
        raise InvalidParametersError(f"{_render_terms(modulus, 't')} is reducible over F_{p}")
    return modulus


def _build_tables(field):
    """``(exp, (add, sub, mul, inv))`` of an extension ``field`` (Huber, IEEE
    Trans. Inf. Theory 36(4), 1990): index ops from three tables over alpha,
    the first element in canonical order of multiplicative order q - 1
    (alpha^((q-1)/r) != 1 for each prime r | q - 1): exp[e] is the index of
    alpha^e, log inverts it (log[0] is None), and alpha^e + 1 = alpha^zech[e],
    read off exp[e] + 1 in digit 0.  Multiply and invert are one lookup; add
    is three, alpha^a + alpha^b = alpha^(a + zech[b-a]), and subtract adds
    -1 = alpha^((q-1)/2), or 1 when p = 2.  An index met twice while exp is
    filled means alpha is not primitive or x -> x * alpha is not a bijection;
    it raises InternalInvariantError."""
    p, n, q, Q = field.p, field.n, field.order, field.order - 1
    modulus = list(field.modulus)

    def vec_mul(u, v):
        return _vec_mod(_vec_mul(u, v, p), modulus, p)

    primes = [r for r in range(2, q) if Q % r == 0 and is_prime(r)]
    alpha = next(a for a in (FieldElem(field, i).coeffs for i in range(p, q))
                 if all(_power(a, Q // r, [1], vec_mul) != [1] for r in primes))
    # times[x], the index of x * alpha, is linear in x: with d p^j the
    # lowest nonzero digit of x, it is times[x - d p^j] plus the digits
    # of d t^j alpha, which are few unless t^j alpha wraps past t^n.
    times = [0] * q
    for j in reversed(range(n)):
        for d in range(1, p):
            step = d * p ** j
            digits = [(p ** k, c) for k, c in
                      enumerate(vec_mul([0] * j + [d], alpha)) if c]
            for y in range(0, q, p ** (j + 1)):
                v = times[y]
                for w, c in digits:
                    u = v // w % p
                    v += ((u + c) % p - u) * w
                times[y + step] = v
    exp, log, x = [], [None] * q, 1
    for e in range(Q):
        if log[x] is not None:
            raise InternalInvariantError(
                f"index {x} repeats at alpha^{e} in the exp table of {field}")
        exp.append(x)
        log[x] = e
        x = times[x]
    zech = [log[i - i % p + (i + 1) % p] for i in exp]
    half = Q // 2 if p > 2 else 0

    def add(a, b):
        if not a or not b:
            return a or b
        z = zech[(log[b] - log[a]) % Q]
        return 0 if z is None else exp[(log[a] + z) % Q]

    return exp, (add, lambda a, b: add(a, exp[(log[b] + half) % Q]) if b else a,
                 lambda a, b: exp[(log[a] + log[b]) % Q] if a and b else 0,
                 lambda a: exp[-log[a] % Q] if a else field._invert_zero())
