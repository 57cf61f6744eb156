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
the order-1 base cases.  ``twofaced._reference.cond_prob_recursive``
implements that recursion literally; ``cond_prob`` implements the parity
closed form.  Both resolve to the two-valued symbol {pi, 1 - pi} before
converting to float, so they agree exactly, with no tolerance.
"""
from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np

from .bitseq import as_bit_array
from .errors import CapacityError

TABLE_ORDER_CAP = 20


class Variant(enum.Enum):
    PLAIN = "plain"
    BAR = "bar"

    def flipped(self) -> "Variant":
        return Variant.BAR if self is Variant.PLAIN else Variant.PLAIN


@dataclass(frozen=True)
class KernelSpec:
    """An order-k kernel: variant, order, and transition parameter pi.

    pi = 0.5 yields the fair-coin process and is allowed; pi in {0, 1}
    would make the chain non-ergodic and is rejected.
    """

    variant: Variant
    order: int
    pi: float

    def __post_init__(self):
        try:
            order = operator.index(self.order)
        except TypeError:
            order = None
        if order is None or order < 1:
            raise ValueError(f"order must be a positive integer, got {self.order!r}")
        object.__setattr__(self, "order", order)
        if not 0.0 < self.pi < 1.0:
            raise ValueError(f"pi must lie strictly inside (0, 1), got {self.pi!r}")


def as_context(context, order: int) -> tuple[int, ...]:
    """Normalize a context word to a tuple of bits, checking its length."""
    bits = as_bit_array(context)
    if bits.size != order:
        raise ValueError(f"context length {bits.size} does not match order {order}")
    return tuple(bits.tolist())


def context_to_int(context) -> int:
    """Encode a context word as an integer, oldest bit most significant.

    Linear in the word length: the bits are left-padded to whole bytes,
    packed, and read as one big-endian integer.
    """
    bits = as_bit_array(context)
    pad = np.zeros(-bits.size % 8, dtype=np.uint8)
    return int.from_bytes(np.packbits(np.concatenate([pad, bits])).tobytes(), "big")


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


def _word_parities(order: int) -> np.ndarray:
    v = np.arange(1 << order, dtype=np.uint32)
    v ^= v >> np.uint32(16)
    v ^= v >> np.uint32(8)
    v ^= v >> np.uint32(4)
    v ^= v >> np.uint32(2)
    v ^= v >> np.uint32(1)
    return (v & np.uint32(1)).astype(np.uint8)


@dataclass(frozen=True)
class KernelTable:
    """Materialized conditional probabilities, one row per context word.

    Row u (contexts indexed as big-endian integers, i.e. lexicographic
    word order) holds (P(0|u), P(1|u)); every entry is pi or 1 - pi.
    """

    spec: KernelSpec
    p0: np.ndarray
    p1: np.ndarray

    def row(self, context) -> tuple[float, float]:
        u = context_to_int(as_context(context, self.spec.order))
        return float(self.p0[u]), float(self.p1[u])

    def to_csv(self) -> str:
        """CSV rows ``context,p0,p1``, contexts in lexicographic order,
        probabilities with 17 significant digits."""
        k = self.spec.order
        lines = ["context,p0,p1"]
        for u in range(1 << k):
            ctx = format(u, f"0{k}b")
            lines.append(f"{ctx},{self.p0[u]:.17g},{self.p1[u]:.17g}")
        return "\n".join(lines) + "\n"


def kernel_table(spec: KernelSpec, cap: int = TABLE_ORDER_CAP) -> KernelTable:
    """Materialize the 2^k-row table of conditional probabilities."""
    if spec.order > cap:
        raise CapacityError(f"order {spec.order} exceeds table cap {cap}")
    letter = _word_parities(spec.order) ^ np.uint8(pi_letter(spec.variant, 0))
    pi, q = spec.pi, 1.0 - spec.pi
    p0 = np.where(letter == 0, pi, q)
    p1 = np.where(letter == 1, pi, q)
    p0.setflags(write=False)
    p1.setflags(write=False)
    return KernelTable(spec, p0, p1)
