"""Sequential sampling from a kernel and exact finite-horizon analysis.

Sampling follows a fixed inverse-transform convention so that runs are
bit-reproducible: at each step the generator draws a uniform real u and
emits 0 iff u < P(0 | context).  It takes the compares u >= pi and
u >= 1 - pi from `at_least`, which needs no floats, and takes
min(order, 8) steps per table lookup: the bits that leave the window
during that many steps are all known before them.  It takes
`_PASS_DRAWS` draws a pass, since `at_least` holds temporaries in
proportion to its draws: past the output, memory stays bounded.

Two steppers share those tables.  Below `_SCAN_ORDER` a table loop takes
one Python iteration per lookup.  From it up, `_block_scan` steps a block
of order // 8 output bytes per round of numpy calls, since every bit
leaving the window during a block was emitted before it.  A round costs
about 14 us whatever its length, so the scan pays only once blocks are
long: on 2^15-draw passes it lost to the loop at order 512 and tied at
768, and from 896 up it won, taking about four fifths of the loop's
time at 1024 and a fifth at 2^17.  At orders that are not a multiple of
8 each leaving byte straddles two history bytes, which costs the loop a
lookup's worth more per byte but the scan one more shift per block, so
there the two tied between 513 and 561, and from 801 to 1001 the scan
took 56-68% of the loop's time.

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

from .bitseq import BitSequence
from .errors import CapacityError
from .kernels import (KernelSpec, KernelTable, TABLE_ORDER_CAP, as_context,
                      context_to_int, int_to_context, kernel_table, pi_letter)

if TYPE_CHECKING:
    from .sources import BitSource

EXTENSION_CAP = 8
# Draws per `generate` pass, whole groups of 64 for `at_least`.  Measured:
# 2^15 keeps a pass's temporaries in a 2 MB L2 cache; 2^16 and 2^17 ran slower.
_PASS_DRAWS = 1 << 15
# From these orders up `generate` steps by `_block_scan`: at multiples of 8,
# and at other orders, whose leaving bytes straddle two history bytes.
# Measured crossovers with the table loop: between 768 and 896, and between
# 513 and 561.
_SCAN_ORDER = (1024, 576)


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
    return GeneratorState(kernel, context_to_int(as_context(word, kernel.order)))


def generate(state: GeneratorState, n: int, reals) -> BitSequence:
    """Emit n bits, advancing the state: the i-th is 0 iff the i-th draw
    is below P(0 | the window at that step).  The draws come from the
    `at_least` of `reals`, a `UniformRealSource`."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    # Per-step decisions for both pi-letters: the step emits ge_pi where
    # the pi-letter is 0 and ge_q where it is 1, and the pi-letter flips
    # with the window parity as one bit enters and one leaves.
    thresholds = (state.kernel.pi, 1.0 - state.kernel.pi)
    out = np.empty(n, dtype=np.uint8)
    for a in range(0, n, _PASS_DRAWS):
        ge_pi, ge_q = reals.at_least(min(_PASS_DRAWS, n - a), thresholds)
        out[a:a + ge_pi.size] = _generate_steps(state, ge_pi, ge_q)
    return BitSequence._wrap(out)


@functools.cache
def _byte_steps(s: int) -> tuple[bytes, list[int], np.ndarray]:
    """Tables that take s <= 8 sampler steps at once.

    With g = [u >= pi], d = g ^ [u >= 1 - pi] and c = g ^ (the bit leaving
    the window), a step emits g ^ (letter & d) and moves the pi-letter to
    (letter & ~d) ^ c.  Indexed by letter << 2s | d << s | c, with d and c
    s-bit chunks, first step high, they give the s steps' letter & d as a
    chunk and the final letter: as ints letter << 2s for the table loop and
    as an array of letters for the block scan.  Built on first use: 2^(2s+1)
    entries.
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
    shifted = np.array([0, 1 << 2 * s], dtype=object)[letter].tolist()
    return masked.tobytes(), shifted, letter


@functools.cache
def _scan_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_byte_steps(8)` for the block scan: the masked bits, and per
    d << 8 | c the final letter from letter 0 and whether a byte resets the
    letter (its final letter is the same from 0 and 1).  Built on first use."""
    masked, _, final = _byte_steps(8)
    first, second = final[:1 << 16], final[1 << 16:]
    return np.frombuffer(masked, np.uint8), first, first == second


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
    The chunks come from `_table_loop`, or from `_block_scan` at orders
    from `_SCAN_ORDER[pad > 0]` up.
    """
    k = state.kernel.order
    s = min(k, 8)
    pad = -k % s
    g = _chunks(ge_pi, s)
    # d << s | g: XORing the leaving chunk in makes the index.
    dg = (g ^ _chunks(ge_q, s)).astype(np.uint16)
    dg <<= s
    dg |= g
    window = state.context.to_bytes(-(-k // 8), "big")
    letter = pi_letter(state.kernel.variant, state.context)
    if k >= _SCAN_ORDER[pad > 0]:
        chunks = _block_scan(window, g, dg, pad, letter)
    else:
        chunks = _table_loop(window, g, dg, pad, letter, s)
    out = _unchunk(chunks, s, ge_pi.size)
    tail = out[max(out.size - k, 0):]
    state.context = (state.context << tail.size | context_to_int(tail)) & ((1 << k) - 1)
    return out


def _table_loop(window: bytes, g, dg, pad: int, letter: int, s: int) -> np.ndarray:
    """The output chunks, one Python iteration and table lookup each."""
    masked, final, _ = _byte_steps(s)
    history = bytearray(window)
    emit = history.append
    letter <<= 2 * s
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
    return np.frombuffer(history, np.uint8, offset=len(window))


def _block_scan(window: bytes, g, dg, pad: int, letter: int) -> np.ndarray:
    """The table loop's output bytes at s = 8, a block of k // 8 bytes per
    round of numpy calls: every bit leaving the window during a block is a
    history bit from before it.

    Within a block, the letter entering each byte is one segmented prefix
    XOR: a byte that resets the letter starts a new segment, and any other
    byte XORs the letter by its final letter from letter 0.
    """
    masked, first, resets = _scan_tables()
    start = len(window)
    history = np.empty(start + g.size, np.uint8)
    history[:start] = np.frombuffer(window, np.uint8)
    block = start - (pad > 0)
    # Segment starts: position 0 (the letter entering the block) and the
    # position after each resetting byte.
    positions = np.arange(min(block, g.size) + 1)
    for b in range(0, g.size, block):
        m = min(block, g.size - b)
        h = history[b:b + m + 1]
        leaving = h[:m] << pad | h[1:] >> (8 - pad) if pad else h[:m]
        idx = dg[b:b + m] ^ leaving
        step = np.empty(m + 1, np.uint8)
        step[0] = letter
        first.take(idx, out=step[1:])
        anchor = np.empty(m + 1, np.intp)
        anchor[0] = 0
        np.multiply(resets.take(idx), positions[1:m + 1], out=anchor[1:])
        np.maximum.accumulate(anchor, out=anchor)
        run = np.bitwise_xor.accumulate(step)
        # The letters entering bytes b .. b + m: the run since the segment start.
        letters = run ^ (run ^ step).take(anchor)
        lookup = np.left_shift(letters[:m], 16, dtype=np.uint32)
        lookup |= idx
        np.bitwise_xor(g[b:b + m], masked.take(lookup), out=history[start + b:start + b + m])
        letter = letters[m]
    return history[start:]


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
        p = np.zeros(1 << order)
        p[context_to_int(as_context(word, order))] = 1.0
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
