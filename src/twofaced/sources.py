"""Randomness inputs for generation and initialization.

Two source contracts are used throughout the package:

* ``BitSource`` yields unbiased independent bits on demand.
* ``UniformRealSource`` yields uniform reals in [0, 1) with 53 bits of
  resolution, derived from a BitSource by a fixed construction: each
  draw consumes exactly 53 bits, first bit most significant, and the
  value is ``mantissa / 2**53``.  Its ``at_least`` compares the draws
  with thresholds straight from the source's 64-bit words, without
  making floats; it agrees with ``reals(n) >= t`` exactly.  Per draw,
  ``at_least`` holds about 40 bytes of temporaries and ``reals`` 70;
  ``generate`` bounds them by calling ``at_least`` a pass at a time.

The deterministic implementation is counter-mode splitmix64: block i of
the stream is ``mix64(seed + (i + 1) * 0x9E3779B97F4A7C15)`` and the 64
bits of each block are consumed least-significant first.  Same seed,
same stream, on every platform; golden vectors are pinned in the tests.
"""
from __future__ import annotations

import functools
import math
import os

import numpy as np

from .bitseq import BitSequence
from .errors import SourceExhaustedError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK53 = np.uint64((1 << 53) - 1)


def _finalize(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer on a uint64 array (arithmetic mod 2^64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def mix64(z: int) -> int:
    """The splitmix64 finalizer on a 64-bit word."""
    # A one-element array, not an np.uint64 scalar: scalars warn on overflow.
    return int(_finalize(np.array([z & _MASK64], dtype=np.uint64))[0])


class BitSource:
    """Contract: ``bits(n)`` returns the next n stream bits as uint8.

    ``words(n)`` returns the same n bits packed little-endian into
    ceil(n / 64) uint64 words, any bits past the n-th reading 0.
    """

    def bits(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def words(self, n: int) -> np.ndarray:
        packed = np.packbits(self.bits(n), bitorder="little")
        return np.concatenate([packed, np.zeros(-packed.size % 8, np.uint8)]).view("<u8")


class CounterBitSource(BitSource):
    """Deterministic bit stream keyed by a 64-bit seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must lie in [0, 2^64), got {seed!r}")
        self._pos = 0  # absolute bit position

    def bits(self, n: int) -> np.ndarray:
        raw = self.words(n).astype("<u8", copy=False).view(np.uint8)
        return np.unpackbits(raw, count=n, bitorder="little")

    def words(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("bit count must be nonnegative")
        first, start = divmod(self._pos, 64)
        # One block more than is kept: a word that starts `start` bits into
        # block i ends in block i + 1.
        ctr = np.arange(first + 1, first + -(-n // 64) + 2, dtype=np.uint64)
        z = _finalize(np.uint64(self.seed) + ctr * np.uint64(_GAMMA))
        if start:
            high = z[1:] << np.uint64(64 - start)
            z >>= np.uint64(start)
            z[:-1] |= high
        out = z[:-1]
        if n % 64:
            out[-1] &= np.uint64((1 << n % 64) - 1)
        self._pos += n
        return out


class OSBitSource(BitSource):
    """Bits from the operating system entropy pool (not reproducible)."""

    def bits(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("bit count must be nonnegative")
        raw = np.frombuffer(os.urandom((n + 7) // 8), dtype=np.uint8)
        return np.unpackbits(raw, count=n, bitorder="little")


class ReplayBitSource(BitSource):
    """Replays a fixed, finite bit sequence; errors on exhaustion."""

    def __init__(self, bits):
        self._bits = BitSequence(bits).array  # owned: later writes to `bits` do not replay
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._bits.size - self._pos

    def bits(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("bit count must be nonnegative")
        if n > self.remaining:
            raise SourceExhaustedError(
                f"requested {n} bits but only {self.remaining} remain")
        out = self._bits[self._pos:self._pos + n]
        self._pos += n
        return out


class FileBitSource(ReplayBitSource):
    """Replays the contents of a packed-bits file."""

    def __init__(self, path):
        with open(path, "rb") as fh:
            data = fh.read()
        super().__init__(BitSequence.from_packed(data))


@functools.lru_cache(maxsize=256)
def _mark(t: float) -> np.uint64:
    """rev53(ceil(t * 2^53) - 1): the threshold as `at_least` compares it."""
    return np.uint64(int(f"{math.ceil(t * 2.0 ** 53) - 1:053b}"[::-1], 2))


@functools.cache
def _field_layout() -> tuple[np.ndarray, ...]:
    """Word, bit, next word and shift of each of 64 draws' fields in 53
    words; built on first use.

    A field may run on into the next word, so every column ORs in that
    word shifted up by 64 - bit.  Where the field fits in its own word,
    those bits land at 53 or above (a shift of 64 gives 0) and the mask
    drops them; the last column's next word is clamped.
    """
    first = 53 * np.arange(64)
    word, bit = first >> 6, (first & 63).astype(np.uint64)
    return word, bit, np.minimum(word + 1, 52), np.uint64(64) - bit


class UniformRealSource:
    """Uniform reals in [0, 1) folded from an underlying bit source."""

    def __init__(self, source: BitSource):
        self.source = source

    @classmethod
    def from_seed(cls, seed: int) -> "UniformRealSource":
        return cls(CounterBitSource(seed))

    def reals(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("draw count must be nonnegative")
        # Each 53-bit row packs MSB first into 7 bytes (3 zero pad bits);
        # behind a zero byte they read as a big-endian u64 of mantissa << 3.
        # The conversion to float64 and the power-of-two scaling are exact.
        rows = np.zeros((n, 8), dtype=np.uint8)
        rows[:, 1:] = np.packbits(self.source.bits(53 * n).reshape(n, 53), axis=1)
        mantissa = rows.view(">u8").ravel() >> np.uint64(3)
        return mantissa.astype(np.float64) * 2.0 ** -53

    def at_least(self, n: int, thresholds) -> list[np.ndarray]:
        """``reals(n) >= t`` for each threshold t in (0, 1], from one read of
        the same 53n bits.

        53 words hold exactly 64 draws, so draw r of each group of 64 is
        the 53-bit field f at word 53r >> 6, bit 53r & 63.  The field holds
        the mantissa's bits in reverse, first (most significant) lowest.
        With T = ceil(t * 2^53) - 1 and x = f ^ rev53(T), u >= t means
        mantissa > T: the highest mantissa bit where they differ is x's
        lowest set bit, and the draw is above T iff f has a 1 there.
        """
        if n < 0:
            raise ValueError("draw count must be nonnegative")
        if not all(0.0 < t <= 1.0 for t in thresholds):
            raise ValueError(f"thresholds must lie in (0, 1], got {thresholds!r}")
        word, bit, after, rise = _field_layout()
        rows = np.zeros((-(-n // 64), 53), dtype=np.uint64)  # the last group may be partial
        words = self.source.words(53 * n)
        rows.ravel()[:words.size] = words
        f = rows[:, word] >> bit
        f |= rows[:, after] << rise
        f &= _MASK53
        out = []
        for t in thresholds:
            x = f ^ _mark(t)
            x &= -x
            x &= f
            out.append(np.not_equal(x, 0).ravel()[:n])
        return out


def next_bits(source: BitSource, n: int) -> BitSequence:
    """Draw n bits from a source as a BitSequence."""
    return BitSequence._wrap(source.bits(n).copy())
