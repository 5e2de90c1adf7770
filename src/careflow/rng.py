"""Seeded, portable random source for the simulator.

SplitMix64 (Steele, Lea & Flood) with pure integer state, so streams are
identical across interpreters and platforms: no dependence on hash
randomization or on a library's distribution internals. Substreams are
derived by folding stream indices into the seed, which keeps every case's
draws independent of case order and of how many draws other cases consume.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Stream:
    """One SplitMix64 stream; extra constructor args select a substream."""

    __slots__ = ("state",)

    def __init__(self, seed: int, *substream: int):
        state = seed & _MASK
        for part in substream:
            state = _mix((state + _GOLDEN * ((part & _MASK) + 1)) & _MASK)
        self.state = state

    def substream(self, part: int) -> Stream:
        """``Stream(seed, *parts, part)`` of this ``Stream(seed, *parts)``, before it draws:
        the fold of the shared parts is done once for all of its substreams."""
        return Stream(_mix((self.state + _GOLDEN * ((part & _MASK) + 1)) & _MASK))

    def random(self) -> float:
        """Uniform float in [0, 1): the top 53 bits of the stream's next output.

        The step and ``_mix`` are written out: one Python call per draw, not three.
        """
        z = self.state = (self.state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return ((z ^ (z >> 31)) >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + self.random() * (hi - lo)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return min(int(self.random() * n), n - 1)

    def bernoulli(self, p: float) -> bool:
        return self.random() < p

    def normal(self) -> float:
        """Standard normal via Box-Muller (cosine branch)."""
        u1 = self.random()
        while u1 <= 0.0:
            u1 = self.random()
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def truncated_normal(self, center: float, spread: float, lo: float, hi: float) -> float:
        """Normal(center, spread) clipped to [lo, hi] by rejection.

        Falls back to a uniform draw if 64 rejections fail (degenerate bounds),
        so the draw count stays bounded and deterministic per call site.
        """
        if spread <= 0:
            return min(max(center, lo), hi)
        for _ in range(64):
            x = center + spread * self.normal()
            if lo <= x <= hi:
                return x
        return self.uniform(lo, hi)
