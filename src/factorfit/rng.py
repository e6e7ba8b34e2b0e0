"""Random streams: the fitters' numpy streams and the pinned generator
of the synthetic data.

The synthetic-data outputs are part of the reproducibility contract, so
they cannot depend on any library's generator that may change between
releases or platforms. This module pins xoshiro256** seeded through
SplitMix64, with the integer-range and shuffle procedures spelled out,
so identical seeds give byte-identical datasets everywhere.

Pinned procedures:

* state derivation: the SplitMix64 stream starts at
  ``(base_seed + GOLDEN * (index + 1)) mod 2^64`` and its first four
  outputs become the xoshiro256** state;
* ``randbelow(n)``: draw 64-bit words, rejecting values >=
  ``2^64 - (2^64 mod n)``, and return ``draw mod n``;
* ``permutation(n)``: Fisher-Yates from the top, swapping position i
  (i = n-1 .. 1) with position ``randbelow(i + 1)``.

The fitters draw (SRM's initial mappings, HTFA's subsamples) from
:func:`numpy_stream`, which takes a user seed mod 2^64, negative or not.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def numpy_stream(seed, *keys):
    """``default_rng((seed mod 2^64, *keys))``, which draws as
    ``default_rng(seed mod 2^64)`` when there are no keys."""
    return np.random.default_rng((seed & _MASK64, *keys))


def _splitmix64(state):
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK64


class PortableRng:
    """xoshiro256** with SplitMix64 seeding (see module docstring)."""

    __slots__ = ("_s",)

    def __init__(self, base_seed, index=0):
        sm = (int(base_seed) + _GOLDEN * (int(index) + 1)) & _MASK64
        state = []
        for _ in range(4):
            sm, out = _splitmix64(sm)
            state.append(out)
        if not any(state):  # all-zero state is invalid for xoshiro
            state[0] = 1
        self._s = state

    def next_u64(self):
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def randbelow(self, n):
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def permutation(self, n):
        """Fisher-Yates permutation of range(n) as a list."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randbelow(i + 1)
            out[i], out[j] = out[j], out[i]
        return out
