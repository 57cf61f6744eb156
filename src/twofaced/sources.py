"""Randomness inputs for generation and initialization.

Two source contracts are used throughout the package:

* ``BitSource`` yields unbiased independent bits on demand.
* ``UniformRealSource`` yields uniform reals in [0, 1) with 53 bits of
  resolution, derived from a BitSource by a fixed construction: each
  draw consumes exactly 53 bits, first bit most significant, and the
  value is ``mantissa / 2**53``.  Its ``at_least`` compares the draws
  with thresholds straight from the bytes that ``_fill`` writes, without
  making floats: eight draws fill exactly 53 bytes, so each draw is one
  8-byte load.  It agrees with ``reals(n) >= t`` exactly.  It works in
  buffers that the source keeps from call to call, about 31 bytes per
  draw of its largest call and 7 more for a counter source's ramp, and
  allocates only the bools it returns; ``reals`` allocates 68 bytes per
  draw.  ``generate`` bounds the kept buffers by calling ``at_least`` a
  pass at a time.

Each source makes only ``_fill``, which writes its next bits in place
(the OS source copies ``os.urandom``'s bytes, a replay source its own,
held packed); ``bits``, ``packed`` and the draws all read it.  The
deterministic source is counter-mode splitmix64: block i of the stream
is ``mix64(seed + (i + 1) * 0x9E3779B97F4A7C15)`` and the 64 bits of
each block are consumed least-significant first.  Same seed, same
stream, on every platform; golden vectors are pinned in the tests.
"""
from __future__ import annotations

import functools
import math
import operator
import os

import numpy as np

from .bitseq import as_bit_array
from .errors import SourceExhaustedError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK53 = np.uint64((1 << 53) - 1)


def _finalize(z: np.ndarray, temp: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a uint64 array (mod 2^64);
    `temp` is scratch of the same size."""
    for shift, multiplier in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=temp)
        z ^= temp
        if multiplier:
            z *= np.uint64(multiplier)
    return z


def mix64(z: int) -> int:
    """The splitmix64 finalizer on a 64-bit word."""
    # A one-element array, not an np.uint64 scalar: scalars warn on overflow.
    word = np.array([z & _MASK64], dtype=np.uint64)
    return int(_finalize(word, np.empty_like(word))[0])


class BitSource:
    """Contract: ``bits(n)`` returns the next n stream bits as uint8.

    ``packed(n)`` returns them as ``bitseq``'s packed bytes: ceil(n / 8)
    uint8, the first bit lowest in the first byte, bits past the n-th 0.
    A source makes only ``_fill``, which writes its bits in place; ``bits``,
    ``packed`` and the draws all read it.
    """

    def bits(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("bit count must be nonnegative")
        # One word more than n bits fill: they start `start` bits into the
        # first word that `_fill` writes.
        z = np.empty(-(-n // 64) + 1, "<u8")
        start = self._fill(z, n, np.empty_like(z))
        return np.unpackbits(z.view(np.uint8), count=start + n, bitorder="little")[start:]

    def packed(self, n: int) -> np.ndarray:
        return np.packbits(self.bits(n), bitorder="little")

    def _fill(self, words: np.ndarray, n: int, temp: np.ndarray) -> int:
        """Write the next n bits into the bytes of `words`, a "<u8" array of
        at least ceil(n / 64) + 1 words, from bit `start` on, and return
        start (below 64).  Bytes past the n bits keep whatever they held;
        `temp` is uint64 scratch of the same size."""
        raise NotImplementedError


class CounterBitSource(BitSource):
    """Deterministic bit stream keyed by a 64-bit seed."""

    def __init__(self, seed: int):
        try:
            self.seed = operator.index(seed)
        except TypeError:
            raise ValueError(f"seed must be an integer, got {seed!r}") from None
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must lie in [0, 2^64), got {seed!r}")
        self._pos = 0  # absolute bit position
        self._ramp = np.empty(0, np.uint64)  # `_fill`'s, grown to its largest call

    bits = BitSource.bits  # on the class, where bench/tracer.py wraps it

    def _fill(self, words: np.ndarray, n: int, temp: np.ndarray) -> int:
        """The blocks holding the next n bits, unshifted, with no copy."""
        first, start = divmod(self._pos, 64)
        z = words[:-(-(start + n) // 64)]
        if self._ramp.size < z.size:  # (i + 1) * GAMMA: the counter less its offset
            self._ramp = np.arange(1, z.size + 1, dtype=np.uint64)
            self._ramp *= np.uint64(_GAMMA)
        # Block first + i is mix64((i + 1) * GAMMA + first * GAMMA + seed).
        np.add(self._ramp[:z.size], np.uint64((first * _GAMMA + self.seed) & _MASK64), out=z)
        _finalize(z, temp[:z.size])
        self._pos += n
        return start


class OSBitSource(BitSource):
    """Bits from the operating system entropy pool (not reproducible)."""

    def _fill(self, words: np.ndarray, n: int, temp: np.ndarray) -> int:
        """`os.urandom`'s bytes, from the first byte on."""
        size = -(-n // 8)
        words.view(np.uint8)[:size] = np.frombuffer(os.urandom(size), np.uint8)
        return 0


class ReplayBitSource(BitSource):
    """Replays a fixed, finite bit sequence; errors on exhaustion."""

    def __init__(self, bits):
        raw = as_bit_array(bits)
        self._size = raw.size
        self._bytes = np.packbits(raw, bitorder="little")  # a copy of `bits`
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._size - self._pos

    def _fill(self, words: np.ndarray, n: int, temp: np.ndarray) -> int:
        """The bytes holding the next n bits, from the current one on."""
        if n > self.remaining:
            raise SourceExhaustedError(f"requested {n} bits but only {self.remaining} remain")
        first, start = divmod(self._pos, 8)
        raw = self._bytes[first:-(-(self._pos + n) // 8)]
        words.view(np.uint8)[:raw.size] = raw
        self._pos += n
        return start


@functools.lru_cache(maxsize=256)
def _mark(t: float) -> np.uint64:
    """rev53(ceil(t * 2^53) - 1): the threshold as `at_least` compares it."""
    return np.uint64(int(f"{math.ceil(t * 2.0 ** 53) - 1:053b}"[::-1], 2))


class UniformRealSource:
    """Uniform reals in [0, 1) folded from an underlying bit source.

    Single-owner: `at_least` works in buffers that the source keeps between
    calls, sized to its largest call.
    """

    def __init__(self, source: BitSource):
        self.source = source
        self._words = self._fields = self._x = self._low = np.empty(0, np.uint64)

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
        """``reals(n) >= t`` for each threshold t in (0, 1], from the same 53n
        bits, read once from the source's bytes.

        The bits start `start` bits into the source's byte buffer, so draw
        8q + r is the 53-bit field f read as one little-endian 8-byte load
        at byte 53q + (53r + start >> 3), shifted right by 53r + start & 7:
        eight draws fill exactly 53 bytes.  The field holds the mantissa's
        bits in reverse, first (most significant) lowest.
        With T = ceil(t * 2^53) - 1 and x = f ^ rev53(T), u >= t means
        mantissa > T: the highest mantissa bit where they differ is x's
        lowest set bit, and the draw is above T iff f has a 1 there.
        """
        if n < 0:
            raise ValueError("draw count must be nonnegative")
        if not all(0.0 < t <= 1.0 for t in thresholds):
            raise ValueError(f"thresholds must lie in (0, 1], got {thresholds!r}")
        if not n:
            return [np.zeros(0, bool) for _ in thresholds]
        groups = -(-n // 8)  # the last group may be partial
        if self._fields.size < 8 * groups:
            # At start 63 the last group's last load reads 9 bytes past it,
            # and the counter writes whole blocks: 16 spare bytes cover both.
            self._words = np.zeros(-(-(53 * groups + 16) // 8), "<u8")
            self._fields, self._x, self._low = (np.empty(8 * groups, np.uint64)
                                                for _ in range(3))
        f, x, low = (a[:8 * groups] for a in (self._fields, self._x, self._low))
        start = self.source._fill(self._words, 53 * n, x)
        buf = self._words.view(np.uint8)
        for r in range(8):
            offset = 53 * r + start
            loads = np.ndarray(groups, "<u8", buf, offset >> 3, (53,))
            np.right_shift(loads, np.uint64(offset & 7), out=f[r::8])
        f &= _MASK53
        out = []
        for t in thresholds:
            np.bitwise_xor(f, _mark(t), out=x)
            np.negative(x, out=low)
            x &= low
            x &= f
            out.append(np.not_equal(x[:n], 0))
        return out
