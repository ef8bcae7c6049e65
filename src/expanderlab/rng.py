"""Deterministic 64-bit pseudorandom generator for reproducible sampling.

Implements xoshiro256** seeded through splitmix64, so a run is pinned down
by a single integer seed, 0 <= seed < 2^64, and can be replayed in any
language with the same two well-known generators:

  splitmix64:   state += 0x9E3779B97F4A7C15
                z = state
                z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
                z = (z ^ (z >> 27)) * 0x94D049BB133111EB
                output z ^ (z >> 31)

  xoshiro256**: result = rotl(s1 * 5, 7) * 9
                t = s1 << 17
                s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t
                s3 = rotl(s3, 45)

All arithmetic is modulo 2^64.  The four xoshiro words are the first four
splitmix64 outputs from the user seed.  Python's own generators are not
used anywhere in sampling paths.
"""

from __future__ import annotations

from .errors import InvalidParametersError, _count, _seed

_MASK = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding; uniform helpers are bias-free."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        state = _seed(seed)
        words = []
        for _ in range(4):
            state, out = splitmix64(state)
            words.append(out)
        self._s = words

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def bounded(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection below the largest multiple
        of n, which removes modulo bias."""
        threshold = ((1 << 64) // _count(n, "n", 1)) * n
        while True:
            v = self.next_u64()
            if v < threshold:
                return v % n

    def sample_indices(self, m: int, count: int) -> tuple[int, ...]:
        """``count`` distinct indices from range(m), returned sorted.

        The first ``count`` steps of a Fisher-Yates shuffle, with the swap
        array held sparsely, so the cost is O(count) regardless of m.
        """
        if _count(count, "count") > _count(m, "m"):
            raise InvalidParametersError(f"cannot draw {count} of {m} indices")
        swap: dict[int, int] = {}
        out = []
        for i in range(count):
            j = i + self.bounded(m - i)
            out.append(swap.get(j, j))
            swap[j] = swap.get(i, i)
        return tuple(sorted(out))
