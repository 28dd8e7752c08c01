"""Deterministic random streams for reproducible randomized searches."""

from __future__ import annotations

import hashlib


class _HashStream:
    """Bits of key, then of sha256(key || n) for n = 1, 2, ... in 8 bytes
    big-endian (a counter-based stream: Salmon et al., SC '11), taken
    lowest first by the two draws the searches make."""

    __slots__ = ("_key", "_counter", "_bits", "_left")

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

    def randrange(self, start: int, stop: int) -> int:
        """Uniform in [start, stop), drawn as CPython's randrange(start, stop)
        draws it: k = (stop - start).bit_length() bits, drawn again while
        they read stop - start or more."""
        n = stop - start
        if n <= 0:
            raise ValueError(f"empty range for randrange({start}, {stop})")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return start + r


def rng_for(seed: int, *labels) -> _HashStream:
    """The stream of sha256("seed/label/...") with its two draws,
    getrandbits and randrange.  No stdlib draw code reads its bits, so it
    is the same on every platform and Python version."""
    text = ("%s" + "/%s" * len(labels)) % (seed, *labels)
    return _HashStream(hashlib.sha256(text.encode()).digest())
