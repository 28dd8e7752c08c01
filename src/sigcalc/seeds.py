"""Deterministic random streams for reproducible randomized searches."""

from __future__ import annotations

import hashlib
import random


class _HashStream(random.Random):
    """Bits of key, then of sha256(key || n) for n = 1, 2, ... in 8 bytes
    big-endian (a counter-based stream: Salmon et al., SC '11), under the
    inherited draws.  No Mersenne Twister is seeded, and `seed` raises."""

    __slots__ = ("_key", "_counter", "_bits", "_left")
    gauss_next = None  # what Random.__init__ would set; gauss() keeps its own

    def __init__(self, key: bytes):
        self._key, self._counter = key, 0
        self._bits, self._left = int.from_bytes(key, "big"), 256

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        while self._left < k:
            self._counter += 1
            block = hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
            self._bits |= int.from_bytes(block, "big") << self._left
            self._left += 256
        value, self._bits = self._bits & ((1 << k) - 1), self._bits >> k
        self._left -= k
        return value

    def randrange(self, start, stop=None, step=1):
        """Random.randrange's draw, without its argument checks when
        start < stop are ints and step is 1: k = (stop - start).bit_length()
        bits, drawn again while they read stop - start or more."""
        if not (type(start) is type(stop) is type(step) is int and step == 1 and start < stop):
            return super().randrange(start, stop, step)
        n = stop - start
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return start + r

    def random(self) -> float:
        return self.getrandbits(53) * 2.0**-53

    def seed(self, *args, **kwargs):
        raise TypeError("a derived stream cannot be re-seeded")


def rng_for(seed: int, *labels) -> random.Random:
    """The stream of sha256("seed/label/..."): the same on every platform."""
    text = ("%s" + "/%s" * len(labels)) % (seed, *labels)
    return _HashStream(hashlib.sha256(text.encode()).digest())
