"""Finite binary sequences with bit-exact serialization.

Three interchangeable wire formats:

* ``ascii01`` -- one character per bit, ``'0'`` or ``'1'``; whitespace
  (including newlines) is ignored on input.
* ``packed`` -- 8 bits per byte, first bit of the stream in the
  least-significant position of the first byte, final partial byte
  zero-padded.  The bit length is carried externally.
* ``hex`` -- the packed bytes, hex-encoded lowercase.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

FORMATS = ("ascii01", "packed", "hex")


def as_bit_array(bits) -> np.ndarray:
    """Normalize bit-like input to a 1-D uint8 array of 0/1 values.

    Accepts a BitSequence, an ascii string of 0/1, a numpy array, bytes,
    or any iterable of integers.  Values that are not exactly 0 or 1
    (e.g. 0.6, or 256, which would wrap to 0 as uint8) raise ValueError.
    A uint8 array, BitSequence or bytes comes back uncopied: read, never write.
    """
    if isinstance(bits, BitSequence):
        return bits.array
    if isinstance(bits, str):
        return _bits_from_text(bits)
    if isinstance(bits, (bytes, bytearray)):
        raw = np.frombuffer(bits, dtype=np.uint8)
    elif isinstance(bits, np.ndarray):
        raw = bits
    else:
        raw = np.array(list(bits))
    if raw.ndim != 1:
        raise ValueError("bit input must be one-dimensional")
    with np.errstate(invalid="ignore"):  # NaN and inf fail the check below
        arr = raw.astype(np.uint8, copy=False)
    if raw.dtype != np.uint8 and not np.array_equal(arr, raw):
        raise ValueError("bits must be 0 or 1")
    if arr.size and int(arr.max()) > 1:
        raise ValueError("bits must be 0 or 1")
    return arr


def _bits_from_text(text: str) -> np.ndarray:
    stripped = "".join(text.split())
    raw = np.frombuffer(stripped.encode("ascii"), dtype=np.uint8)
    arr = raw - np.uint8(ord("0"))
    if arr.size and int(arr.max()) > 1:
        raise ValueError("ascii01 input may contain only '0', '1', and whitespace")
    return arr


class BitSequence:
    """An immutable, ordered, finite sequence of bits."""

    __slots__ = ("_bits",)

    def __init__(self, bits: "Iterable[int] | np.ndarray | str | BitSequence" = ()):
        arr = as_bit_array(bits)
        if not isinstance(bits, BitSequence) and (arr is bits or arr.base is not None):
            arr = arr.copy()  # neither share nor freeze the caller's buffer
        arr.setflags(write=False)
        self._bits = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "BitSequence":
        # Trusted constructor: caller guarantees a fresh uint8 0/1 array.
        obj = object.__new__(cls)
        if arr.flags.writeable:
            arr.setflags(write=False)
        obj._bits = arr
        return obj

    @classmethod
    def zeros(cls, n: int) -> "BitSequence":
        return cls._wrap(np.zeros(n, dtype=np.uint8))

    @classmethod
    def from_ascii01(cls, text: str) -> "BitSequence":
        return cls._wrap(_bits_from_text(text))

    def to_ascii01(self) -> str:
        return (self._bits + np.uint8(ord("0"))).tobytes().decode("ascii")

    @classmethod
    def from_packed(cls, data: bytes, n: int | None = None) -> "BitSequence":
        if n is None:
            n = 8 * len(data)
        if n < 0:
            raise ValueError(f"bit count must be nonnegative, got {n}")
        if n > 8 * len(data):
            raise ValueError(f"{len(data)} bytes hold fewer than {n} bits")
        raw = np.frombuffer(data, dtype=np.uint8)
        return cls._wrap(np.unpackbits(raw, count=n, bitorder="little"))

    def to_packed(self) -> bytes:
        return np.packbits(self._bits, bitorder="little").tobytes()

    @classmethod
    def from_hex(cls, text: str, n: int | None = None) -> "BitSequence":
        return cls.from_packed(bytes.fromhex("".join(text.split())), n)

    def to_hex(self) -> str:
        return self.to_packed().hex()

    @property
    def array(self) -> np.ndarray:
        """Read-only uint8 view of the bits."""
        return self._bits

    def __len__(self) -> int:
        return self._bits.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return BitSequence._wrap(self._bits[index])
        return int(self._bits[index])

    def __iter__(self):
        return map(int, self._bits)

    def __eq__(self, other) -> bool:
        if isinstance(other, BitSequence):
            return np.array_equal(self._bits, other._bits)
        return NotImplemented

    def __xor__(self, other: "BitSequence") -> "BitSequence":
        if not isinstance(other, BitSequence):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return BitSequence._wrap(self._bits ^ other._bits)

    def __add__(self, other: "BitSequence") -> "BitSequence":
        if not isinstance(other, BitSequence):
            return NotImplemented
        return BitSequence._wrap(np.concatenate([self._bits, other._bits]))

    def __repr__(self) -> str:
        shown = self.to_ascii01() if len(self) <= 64 else self[:64].to_ascii01() + "..."
        return f"BitSequence('{shown}', len={len(self)})"


def decode_stream(data: bytes, fmt: str) -> BitSequence:
    """Decode a serialized stream in one of the three wire formats."""
    if fmt == "ascii01":
        return BitSequence.from_ascii01(data.decode("ascii"))
    if fmt == "packed":
        return BitSequence.from_packed(data)
    if fmt == "hex":
        return BitSequence.from_hex(data.decode("ascii"))
    raise ValueError(f"unknown format {fmt!r}")


def encode_stream(seq: BitSequence, fmt: str) -> bytes:
    """Serialize a stream in one of the three wire formats."""
    if fmt == "ascii01":
        return seq.to_ascii01().encode("ascii")
    if fmt == "packed":
        return seq.to_packed()
    if fmt == "hex":
        return seq.to_hex().encode("ascii")
    raise ValueError(f"unknown format {fmt!r}")
