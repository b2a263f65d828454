"""Deterministic random sampling for campaigns.

Python's random module does not promise identical streams across
versions, and campaign output must be byte-identical for a fixed seed on
any platform.  So sampling is built on an explicit SplitMix64 sequence:

    state_{i+1} = (state_i + 0x9E3779B97F4A7C15) mod 2^64
    output(z):   z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
                 z ^= z >> 27; z *= 0x94D049BB133111EB
                 z ^= z >> 31          (all mod 2^64)

Bounded draws use rejection sampling, so there is no modulo bias and the
stream consumed per draw is well defined.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def nth_seed(seed: int, i: int) -> int:
    """The i-th output of the stream seeded with `seed`.

    SplitMix64 state advances by a fixed constant, so output i can be
    computed directly; used to give worker-partitioned campaign items
    independent child seeds without sharing generator state.
    """
    state = (seed + (i + 1) * _GOLDEN) & _MASK
    return _mix(state)


class DetRng:
    """SplitMix64 stream with convenience draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection."""
        if not 0 < n <= _MASK + 1:
            raise ValueError("below() needs 1 <= n <= 2**64; use bits() beyond")
        limit = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            v = self.next64()
            if v < limit:
                return v % n

    def bits(self, k: int) -> int:
        """Uniform k-bit integer."""
        out = 0
        for _ in range((k + 63) // 64):
            out = (out << 64) | self.next64()
        return out >> ((-k) % 64)

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct integers from [0, n), order as drawn.

        Partial Fisher-Yates over a sparse index map, so cost is O(k)
        regardless of n.
        """
        if not 0 <= k <= n:
            raise ValueError("sample() needs 0 <= k <= n")
        if k and n > _MASK + 1:
            raise ValueError("below() needs 1 <= n <= 2**64; use bits() beyond")
        # below(n - i) per draw, with next64 and _mix inlined: the same
        # stream, one state write at the end
        swapped: dict[int, int] = {}
        out = []
        state = self._state
        for i in range(k):
            m = n - i
            limit = _MASK + 1 - ((_MASK + 1) % m)
            while True:
                state = (state + _GOLDEN) & _MASK
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                z ^= z >> 31
                if z < limit:
                    break
            j = i + z % m
            out.append(swapped.get(j, j))
            swapped[j] = swapped.get(i, i)
        self._state = state
        return out
