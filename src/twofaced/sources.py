"""Randomness inputs for generation and initialization.

Two source contracts are used throughout the package:

* ``BitSource`` yields unbiased independent bits on demand.
* ``UniformRealSource`` yields uniform reals in [0, 1) with 53 bits of
  resolution, derived from a BitSource by a fixed construction: each
  draw consumes exactly 53 bits, first bit most significant, and the
  value is ``mantissa / 2**53``.

The deterministic implementation is counter-mode splitmix64: block i of
the stream is ``mix64(seed + (i + 1) * 0x9E3779B97F4A7C15)`` and the 64
bits of each block are consumed least-significant first.  Same seed,
same stream, on every platform; golden vectors are pinned in the tests.
"""
from __future__ import annotations

import os

import numpy as np

from .bitseq import BitSequence, as_bit_array
from .errors import SourceExhaustedError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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
    """Contract: ``bits(n)`` returns the next n stream bits as uint8."""

    def bits(self, n: int) -> np.ndarray:
        raise NotImplementedError


class CounterBitSource(BitSource):
    """Deterministic bit stream keyed by a 64-bit seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must lie in [0, 2^64), got {seed!r}")
        self._pos = 0  # absolute bit position

    def bits(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("bit count must be nonnegative")
        first = self._pos >> 6
        last = (self._pos + n - 1) >> 6
        ctr = np.arange(first, last + 1, dtype=np.uint64)
        z = _finalize(np.uint64(self.seed) + (ctr + np.uint64(1)) * np.uint64(_GAMMA))
        block_bits = np.unpackbits(z.astype("<u8").view(np.uint8), bitorder="little")
        start = self._pos - (first << 6)
        self._pos += n
        return block_bits[start:start + n]


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
        self._bits = as_bit_array(bits)
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
        super().__init__(BitSequence.from_packed(data).array)


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


def next_bits(source: BitSource, n: int) -> BitSequence:
    """Draw n bits from a source as a BitSequence."""
    return BitSequence._wrap(source.bits(n).copy())
