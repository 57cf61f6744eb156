"""Order-k conditional-probability kernels with two-valued transitions.

Two mutually recursive kernel families over the binary alphabet are
provided, selected by :class:`Variant`.  For every k-bit context the
next-bit law puts probability ``pi`` on one letter and ``1 - pi`` on the
other.  Which letter receives ``pi`` is decided by the context parity:
the PLAIN family gives ``pi`` to the bit equal to the XOR of the context
bits, the BAR family to its complement.

`pi_letter` is that rule, on the window as an integer; it is the only
place in the package that tells the variants apart.  The sampler, the
tables and the stream conversion all take the pi-letter from it.

The inductive definition doubles the context one (oldest) bit at a time:
a leading 0 keeps the family, a leading 1 swaps PLAIN and BAR, down to
the order-1 base cases.  ``kernel_table`` builds its pi-letters by that
doubling from ``pi_letter(variant, 0)``: the rows with a leading 1 flip
the rows of the order below.  ``tests/reference.py`` implements the
recursion literally (``cond_prob_recursive``), ``cond_prob`` the parity
closed form; both resolve to the two-valued symbol {pi, 1 - pi} before
converting to float, so they agree exactly, with no tolerance.
"""
from __future__ import annotations

import enum
import operator
from typing import NamedTuple

import numpy as np

from .bitseq import as_bit_array
from .errors import CapacityError

TABLE_ORDER_CAP = 20
PI_FLOOR = 1e-9


class Variant(enum.Enum):
    PLAIN = "plain"
    BAR = "bar"


class KernelSpec(NamedTuple("KernelSpec", [("variant", Variant), ("order", int), ("pi", float)])):
    """An order-k kernel: variant, order, and transition parameter pi.

    pi = 0.5 yields the fair-coin process.  pi must lie in [PI_FLOOR,
    1 - PI_FLOOR], as the sampler's draws resolve it only to 2^-53.
    """

    __slots__ = ()

    def __new__(cls, variant: Variant, order: int, pi: float):
        try:
            index = operator.index(order)
        except TypeError:
            index = None
        if index is None or index < 1:
            raise ValueError(f"order must be a positive integer, got {order!r}")
        if not PI_FLOOR <= pi <= 1.0 - PI_FLOOR:
            raise ValueError(f"pi must lie in [{PI_FLOOR:g}, 1 - {PI_FLOOR:g}], got {pi!r}")
        return super().__new__(cls, variant, index, pi)


def as_context(context, order: int) -> np.ndarray:
    """Check a k-bit context word: its bits as a 1-D uint8 array, exactly
    `order` long.  The package's one length check for a window word; the
    array may be the caller's own, so read it, never write it."""
    bits = as_bit_array(context)
    if bits.size != order:
        raise ValueError(f"context length {bits.size} does not match order {order}")
    return bits


def context_to_int(context) -> int:
    """Encode a context word as an integer, oldest bit most significant.

    Linear in the word length: the bits are packed, read as one big-endian
    integer, and shifted right past the zero bits that fill the last byte.
    """
    bits = as_bit_array(context)
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-bits.size % 8)


def int_to_context(value: int, order: int) -> tuple[int, ...]:
    """Decode the low `order` bits of an integer into a context word,
    oldest bit first; linear in `order`."""
    value = operator.index(value) & ((1 << order) - 1)
    raw = np.frombuffer(value.to_bytes((order + 7) // 8, "big"), dtype=np.uint8)
    bits = np.unpackbits(raw)
    return tuple(bits[bits.size - order:].tolist())


def pi_letter(variant: Variant, window: int) -> int:
    """The letter with probability pi after a context window, given as an
    integer: the window's parity for PLAIN, its complement for BAR."""
    return (window.bit_count() & 1) ^ (variant is Variant.BAR)


def _check_bit(next_bit: int) -> int:
    if next_bit not in (0, 1):
        raise ValueError(f"next bit must be 0 or 1, got {next_bit!r}")
    return next_bit


def cond_prob(spec: KernelSpec, next_bit: int, context) -> float:
    """P(next_bit | context) by the parity closed form."""
    window = context_to_int(as_context(context, spec.order))
    _check_bit(next_bit)
    return spec.pi if next_bit == pi_letter(spec.variant, window) else 1.0 - spec.pi


class KernelTable(NamedTuple):
    """Materialized conditional probabilities: entry u of `p0` and `p1` is
    P(0|u) and P(1|u), the context read as a big-endian integer
    (`context_to_int`); every entry is pi or 1 - pi."""

    p0: np.ndarray
    p1: np.ndarray


def kernel_table(spec: KernelSpec) -> KernelTable:
    """Materialize the 2^k-row table of conditional probabilities."""
    if spec.order > TABLE_ORDER_CAP:
        raise CapacityError(f"order {spec.order} exceeds table cap {TABLE_ORDER_CAP}")
    letter = np.array([pi_letter(spec.variant, 0)], dtype=np.uint8)
    for _ in range(spec.order):
        letter = np.concatenate([letter, letter ^ 1])
    pi, q = spec.pi, 1.0 - spec.pi
    p0 = np.where(letter == 0, pi, q)
    p1 = np.where(letter == 1, pi, q)
    p0.setflags(write=False)
    p1.setflags(write=False)
    return KernelTable(p0, p1)
