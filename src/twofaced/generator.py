"""Sequential sampling from a kernel and exact finite-horizon analysis.

Sampling follows a fixed inverse-transform convention so that runs are
bit-reproducible: at each step the generator draws a uniform real u and
emits 0 iff u < P(0 | context).  It takes the compares u >= pi and
u >= 1 - pi from `at_least`, which needs no floats, and takes
min(order, 8) steps per table lookup: the bits that leave the window
during that many steps are all known before them.

The exact operations treat the chain on 2^k context states explicitly:
`propagate` advances a state distribution, `exact_block_distribution`
yields the law of a length-m window at a given offset, and
`exact_conditional_entropy` evaluates the order-m conditional entropy of
the stationary (uniform-initial) process in bits per letter.  These are
desk-scale tools; they are capped at 2^order states and at windows of
min(order+8, 24) bits.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .bitseq import BitSequence, as_bit_array
from .errors import CapacityError
from .kernels import (KernelSpec, KernelTable, TABLE_ORDER_CAP, context_to_int,
                      int_to_context, kernel_table, pi_letter)

if TYPE_CHECKING:
    from .sources import BitSource

EXTENSION_CAP = 8


@dataclass
class GeneratorState:
    """A kernel plus the sliding window of the last `order` emitted bits.

    The window is stored as one integer, oldest bit most significant;
    `context_to_int` and `int_to_context` are its only conversions to and
    from bit form (the table stepper reads it packed, by `int.to_bytes`).
    Single-owner and sequential: the Markov dependence
    forbids parallel emission within one stream.
    """

    kernel: KernelSpec
    context: int

    def context_bits(self) -> tuple[int, ...]:
        return int_to_context(self.context, self.kernel.order)


def init_uniform(kernel: KernelSpec, source: BitSource) -> GeneratorState:
    """Draw the initial window uniformly, consuming exactly `order` bits."""
    word = source.bits(kernel.order)
    return GeneratorState(kernel, context_to_int(word))


def init_fixed(kernel: KernelSpec, word) -> GeneratorState:
    """Start from a fixed initial window of length `order`."""
    bits = as_bit_array(word)
    if bits.size != kernel.order:
        raise ValueError(
            f"initial word length {bits.size} does not match order {kernel.order}")
    return GeneratorState(kernel, context_to_int(bits))


def generate(state: GeneratorState, n: int, reals) -> BitSequence:
    """Emit n bits, advancing the state: the i-th is 0 iff the i-th draw
    is below P(0 | the window at that step).  The draws come from the
    `at_least` of `reals`, a `UniformRealSource`."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    kernel = state.kernel
    # Per-step decisions for both pi-letters: the step emits ge_pi where
    # the pi-letter is 0 and ge_q where it is 1, and the pi-letter flips
    # with the window parity as one bit enters and one leaves.
    ge_pi, ge_q = reals.at_least(n, (kernel.pi, 1.0 - kernel.pi))
    return BitSequence._wrap(_generate_steps(state, ge_pi, ge_q))


@functools.cache
def _byte_steps(s: int) -> tuple[bytes, list[int]]:
    """Tables that take s <= 8 sampler steps at once.

    With g = [u >= pi], d = g ^ [u >= 1 - pi] and c = g ^ (the bit leaving
    the window), a step emits g ^ (letter & d) and moves the pi-letter to
    (letter & ~d) ^ c.  Indexed by letter << 2s | d << s | c, with d and c
    s-bit chunks, first step high, they give the s steps' letter & d as a
    chunk and the final letter << 2s.  Built on first use: 2^(2s+1) entries.
    """
    index = np.arange(1 << 2 * s + 1)
    letter, d, c = ((index >> shift & (1 << s) - 1).astype(np.uint8)
                    for shift in (2 * s, s, 0))
    masked = np.zeros_like(c)
    for step in range(s - 1, -1, -1):
        d_i = d >> step & 1
        masked |= (letter & d_i) << step
        letter = letter & (d_i ^ 1) ^ c >> step & 1
    # The final letters as two shared int objects, ready to OR into an index.
    return masked.tobytes(), np.array([0, 1 << 2 * s], dtype=object)[letter].tolist()


def _chunks(bits: np.ndarray, s: int) -> np.ndarray:
    """The bits in s-bit chunks, one per byte, first bit high, zero-padded.
    Below s = 8, packed in s strided passes, so no temporary outgrows the
    chunks; an 8-bit row per chunk would take 8/s bytes per bit."""
    if s == 8:
        return np.packbits(bits)
    bits = bits.view(np.uint8)
    out = np.zeros(-(-bits.size // s), dtype=np.uint8)
    for j in range(s):
        column = bits[j::s] << s - 1 - j
        out[:column.size] |= column
    return out


def _unchunk(chunks: np.ndarray, s: int, n: int) -> np.ndarray:
    """The first n bits of s-bit chunks, one per byte, first bit high."""
    if s == 8:
        return np.unpackbits(chunks, count=n)
    out = np.empty(chunks.size * s, dtype=np.uint8)
    for j in range(s):
        column = out[j::s]
        np.right_shift(chunks, s - 1 - j, out=column)
        column &= 1
    return out[:n]


def _generate_steps(state: GeneratorState, ge_pi, ge_q) -> np.ndarray:
    """`generate`'s steps on `state`, s = min(k, 8) per table lookup: the
    s bits that leave the window during s outputs are known before them.

    The history (window, then outputs) is held in s-bit chunks, one per
    byte, the window behind pad = (-k) mod s zero bits, so the bits leaving
    during output chunk b are history bits sb + pad onwards.  pad is 0
    below order 8, where the window is one chunk, and at multiples of 8;
    otherwise s = 8 and the leaving chunk straddles two history bytes.
    """
    k = state.kernel.order
    s = min(k, 8)
    masked, final = _byte_steps(s)
    pad = -k % s
    g = _chunks(ge_pi, s)
    # d << s | g: XORing the leaving chunk in makes the index.
    dg = (g ^ _chunks(ge_q, s)).astype(np.uint16)
    dg <<= s
    dg |= g
    history = bytearray(state.context.to_bytes(-(-k // 8), "big"))
    start = len(history)
    emit = history.append
    letter = pi_letter(state.kernel.variant, state.context) << 2 * s
    # The history is read while it grows, a padded window behind the appends.
    if pad:
        ahead = iter(history)
        next(ahead)
        for g_b, dg_b, h0, h1 in zip(g.tobytes(), memoryview(dg), history, ahead):
            i = letter | dg_b ^ ((h0 << 8 | h1) >> (8 - pad) & 255)
            emit(g_b ^ masked[i])
            letter = final[i]
    else:
        for g_b, dg_b, h0 in zip(g.tobytes(), memoryview(dg), history):
            i = letter | dg_b ^ h0
            emit(g_b ^ masked[i])
            letter = final[i]
    out = _unchunk(np.frombuffer(history, np.uint8, offset=start), s, ge_pi.size)
    tail = out[max(out.size - k, 0):]
    state.context = (state.context << tail.size | context_to_int(tail)) & ((1 << k) - 1)
    return out


def _check_order_cap(order: int) -> None:
    if order > TABLE_ORDER_CAP:
        raise CapacityError(f"order {order} exceeds exact-computation cap {TABLE_ORDER_CAP}")


@dataclass(frozen=True)
class StateDistribution:
    """A probability vector over the 2^order context words.

    Indexed by the big-endian integer encoding of the word.  Entries are
    nonnegative and sum to 1 within 1e-12.
    """

    order: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (1 << self.order,):
            raise ValueError(f"expected {1 << self.order} entries, got {p.shape}")
        if p.min() < 0.0:
            raise ValueError("probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, order: int) -> "StateDistribution":
        _check_order_cap(order)
        return cls(order, np.full(1 << order, 2.0 ** -order))

    @classmethod
    def point_mass(cls, order: int, word) -> "StateDistribution":
        _check_order_cap(order)
        bits = as_bit_array(word)
        if bits.size != order:
            raise ValueError(f"word length {bits.size} does not match order {order}")
        p = np.zeros(1 << order)
        p[context_to_int(bits)] = 1.0
        return cls(order, p)


def _extend(p: np.ndarray, table: KernelTable) -> np.ndarray:
    """Law of the (t+1)-windows from the law `p` of the t-windows, t >= order:
    the new letter's probability is read from the last `order` bits."""
    out = np.empty(p.size << 1)
    rows = p.reshape(-1, table.p0.size)
    halves = out.reshape(rows.shape + (2,))
    np.multiply(rows, table.p0, out=halves[..., 0])
    np.multiply(rows, table.p1, out=halves[..., 1])
    return out


def propagate(kernel: KernelSpec, dist: StateDistribution,
              steps: int = 1) -> StateDistribution:
    """Advance a context distribution through `steps` chain transitions."""
    return StateDistribution(
        kernel.order, exact_block_distribution(kernel, dist, steps, kernel.order))


def exact_block_distribution(kernel: KernelSpec, initial: StateDistribution,
                             offset: int, block_len: int) -> np.ndarray:
    """Exact law of the length-`block_len` window starting `offset` letters
    after the initial window.

    Returns a vector over all words of that length, indexed big-endian.
    Each chain step extends the window by one letter and, for the
    `offset` steps, then sums the oldest letter out; what is left is
    marginalized (block_len < order) or extended (block_len > order).
    """
    from .stats import BLOCK_LEN_CAP
    k = kernel.order
    m = block_len
    if initial.order != k:
        raise ValueError("initial distribution order does not match kernel order")
    if offset < 0:
        raise ValueError("offset must be nonnegative")
    if m < 1:
        raise ValueError("block length must be positive")
    if m > min(k + EXTENSION_CAP, BLOCK_LEN_CAP):
        raise CapacityError(
            f"block length {m} exceeds cap min(order+{EXTENSION_CAP}, {BLOCK_LEN_CAP})")
    table = kernel_table(kernel)
    p = initial.probs
    for _ in range(offset):
        p = _extend(p, table).reshape(2, -1).sum(axis=0)
    if m < k:
        return p.reshape(1 << m, -1).sum(axis=1)
    for _ in range(k, m):
        p = _extend(p, table)
    return p


def exact_conditional_entropy(kernel: KernelSpec, m: int) -> float:
    """Order-m conditional entropy of the stationary process, bits/letter.

    Equal to 1 exactly for m <= order and to the binary entropy of pi for
    every m > order.
    """
    from .stats import conditional_entropy
    if m < 1:
        raise ValueError("entropy order must be positive")
    return conditional_entropy(exact_block_distribution(
        kernel, StateDistribution.uniform(kernel.order), 0, m))


def limit_entropy(pi: float) -> float:
    """Binary entropy of pi in bits: the per-letter entropy rate of any
    kernel with parameter pi."""
    if not 0.0 < pi < 1.0:
        raise ValueError(f"pi must lie strictly inside (0, 1), got {pi!r}")
    return -(pi * math.log2(pi) + (1.0 - pi) * math.log2(1.0 - pi))
