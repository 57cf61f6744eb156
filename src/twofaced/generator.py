"""Sequential sampling from a kernel, and its conditional entropies.

Sampling follows a fixed inverse-transform convention so that runs are
bit-reproducible: at each step the generator draws a uniform real u and
emits 0 iff u < P(0 | context).  It takes the compares u >= pi and
u >= 1 - pi from `at_least`, which needs no floats, and takes 8 steps per
table lookup at every order: the bits that leave the window during a byte
of steps are known before it, as draws less the masked bits that the
stepper carries.  The window stays in the packed bytes a pass reads.  It
takes `_PASS_DRAWS` draws a pass, since the `UniformRealSource` keeps
`at_least`'s buffers at the size of its largest call: past the output,
memory stays bounded, and every pass after the first reuses the first's.

Each order below 9 has its own step table; orders from 9 up read order
8's with only its final letters.  Below `_SCAN_ORDER` a table loop takes
one Python iteration per lookup.  From it up, `_block_scan` steps a block
of order // 8 output bytes per round of numpy calls, since every bit
leaving the window during a block was emitted before it; it reads the
loop's letters, shifted by 8, and a byte whose d is not 0 resets the
letter.  A round costs about 14 us whatever its length, so the scan pays
only once blocks are long: on 2^15-draw passes it took 1.67 times the
loop's time at order 512, 1.10 at 768 and 0.99 at 832, and from 896 up it
won, taking 0.87 of it at 1024, 0.42 at 4096 and 0.29 at 2^17.  At orders
that are not a multiple of 8 each leaving byte straddles two history
bytes, which costs the loop a lookup's worth more per byte but the scan
one more shift per block, so there the two tied between 513 and 545, and
from 577 up the scan won, taking 0.76 of the loop's time at 705-769 and
0.22 at 2^17 - 3.

`exact_conditional_entropy` is the entropy staircase in closed form; the
2^k-state chain in `tests/reference.py` checks it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bitseq import BitSequence
from .kernels import KernelSpec, as_context, context_to_int, int_to_context, pi_letter

if TYPE_CHECKING:
    from .sources import BitSource

# Draws per `generate` pass, whole groups of 8 for `at_least`.  2^15 keeps a
# pass's buffers, about 38 B a draw that the source keeps between passes, in
# a 2 MB L2 cache.  Measured at order 8 on 10^6 bits, median of 9: 2^14,
# 2^15, 2^16 and 2^17 took 45.7, 42.8, 41.8 and 45.2 ns/bit; 2^16 is within
# the spread and would double the kept buffers.
_PASS_DRAWS = 1 << 15
# From these orders up `generate` steps by `_block_scan`: at multiples of 8,
# and at other orders, whose leaving bytes straddle two history bytes.
# Measured crossovers with the table loop: a tie at 832, and between 545
# and 577.
_SCAN_ORDER = (896, 576)


@dataclass(eq=False)
class GeneratorState:
    """A kernel plus the sliding window of the last `order` emitted bits,
    held as the ceil(order / 8) uint8 bytes that a pass's history starts
    with: oldest bit highest, behind (-order) mod 8 zero bits.  Single-owner
    and sequential: the Markov dependence forbids parallel emission within
    one stream."""

    kernel: KernelSpec
    window: np.ndarray

    def context_bits(self) -> tuple[int, ...]:
        return int_to_context(int.from_bytes(self.window, "big"), self.kernel.order)


def init_uniform(kernel: KernelSpec, source: BitSource) -> GeneratorState:
    """Draw the initial window uniformly, consuming exactly `order` bits."""
    window = context_to_int(source.bits(kernel.order)).to_bytes(-(-kernel.order // 8), "big")
    return GeneratorState(kernel, np.frombuffer(window, np.uint8))


def init_fixed(kernel: KernelSpec, word) -> GeneratorState:
    """Start from a fixed initial window of length `order`."""
    window = context_to_int(as_context(word, kernel.order)).to_bytes(-(-kernel.order // 8), "big")
    return GeneratorState(kernel, np.frombuffer(window, np.uint8))


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


def _nibble_steps(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Four sampler steps at orders k with s = min(k, 8), as `_byte_steps`
    takes eight: the masked bits and the final letter, shape (16, 2, 16) by
    d, letter and x, a nibble of steps each, first step high.  The m of a
    step s back feeds back within the nibble only for s < 4."""
    d = np.arange(16, dtype=np.uint8).reshape(16, 1, 1)
    x = d.reshape(1, 1, 16)
    letter = np.arange(2, dtype=np.uint8).reshape(1, 2, 1)
    m = np.zeros((16, 2, 16), np.uint8)
    for j in range(3, -1, -1):  # the step at bit j; bit j + s is s steps back
        d_j = d >> j & 1
        c = x >> j & 1 ^ (m >> j + s & 1 if j + s < 4 else 0)
        m |= (letter & d_j) << j
        letter = letter & (d_j ^ 1) ^ c
    return m, letter


@functools.cache
def _byte_steps(s: int) -> tuple[bytes, memoryview]:
    """Tables that take 8 sampler steps at once at orders k with
    s = min(k, 9).

    With g = [u >= pi] and d = g ^ [u >= 1 - pi], a step emits g ^ m, where
    m = letter & d is its masked bit, and moves the pi-letter to
    (letter & ~d) ^ c, where c = g ^ (the bit leaving the window).  That bit
    is an output, so c = x ^ (the m k steps back), where x = g ^ (the g or
    window bit k steps back) and a window bit's m is 0.  Indexed by
    d << 9 | letter << 8 | x, with d and x a byte of steps, first step high,
    and x already XORed with the m that leave during the byte from earlier
    bytes, they give the byte's m and letter << 8 | (m << 8 - s) & 255: the
    final letter and the m that leave during the next byte, up to order 8.
    Below order 8 the table feeds back the m that leave within the byte.
    At s = 9, above order 8, none leave during the next byte, as there
    they leave through the history: order 8's table, its letters alone.

    Built on first use from two nibbles of `_nibble_steps`: the second
    nibble starts from the first's final letter, with the first's m that
    leave during it, (m_hi << 4 >> s) & 15, XORed into its x.  So each
    row d << 9 | letter << 8 | x_hi << 4 of 16 entries, x_lo = 0 .. 15, is
    one of 512 rows (d_lo, the first's letter and m_hi), taken in one
    gather.  The loop reads the letters through a memoryview: a list was
    about 12 ns a lookup faster at orders 64 and 512 but took about 1.9 ms
    to build in a fresh process, where the ladder's table loop makes
    7.5*10^4 lookups above order 8.
    """
    if s == 9:
        masked, carry = _byte_steps(8)
        return masked, memoryview(np.frombuffer(carry, np.uint16) & 0xFF00)
    m, letter = _nibble_steps(s)
    nib = np.arange(16)
    # The second nibble by d_lo, its letter, m_hi and x_lo: the entry at
    # x_lo ^ the feedback, with m_hi << 4 above its m.
    second = (letter.astype(np.uint16) << 8 | m)[:, :, nib.reshape(16, 1) << 4 >> s & 15 ^ nib]
    second |= (nib << 4).astype(np.uint16).reshape(16, 1)
    # Its row for each d_hi, d_lo, letter and x_hi.
    rows = nib.reshape(1, 16, 1, 1) << 5 | (letter.astype(np.intp) << 4 | m).reshape(16, 1, 2, 16)
    steps = second.reshape(512, 16).take(rows, axis=0)  # letter << 8 | m
    masked = steps.astype(np.uint8)
    table = masked.tobytes()
    steps &= 0xFF00
    masked <<= 8 - s
    steps |= masked
    return table, memoryview(steps.reshape(-1))


def _leaving(history: np.ndarray, shift: int, m: int) -> np.ndarray:
    """The m bytes of `history` from its bit `shift` (below 8) on.  From
    history byte b at shift pad they are the bytes leaving the window during
    output bytes b .. b + m - 1, as the history holds it behind pad zero bits."""
    return history[:m] << shift | history[1:m + 1] >> 8 - shift if shift else history[:m]


def _generate_steps(state: GeneratorState, ge_pi, ge_q) -> np.ndarray:
    """`generate`'s steps on `state`, 8 per table lookup: the bits that
    leave the window during a byte of outputs are known before it, as g
    bits, less the masked bits m that `_table_loop` or, at orders from
    `_SCAN_ORDER[pad > 0]` up, `_block_scan` carries.

    The history (window, then g) is held in bytes, the window behind
    pad = (-k) mod 8 zero bits, so the bits leaving during output byte b
    are its bits 8b + pad on, in two bytes unless k is a multiple of 8.
    Then g ^ m replaces g, and the next window is copied from bit n on.
    """
    k, n = state.kernel.order, ge_pi.size
    pad = -k % 8
    g = np.packbits(ge_pi)
    history = np.concatenate((state.window, g))
    # d << 9 | x, the index but for the letter and the m from earlier bytes.
    dx = (np.packbits(ge_q) ^ g).astype(np.uint32)
    dx <<= 9
    dx |= g ^ _leaving(history, pad, g.size)
    steps = _block_scan if k >= _SCAN_ORDER[pad > 0] else _table_loop
    parity = np.bitwise_xor.reduce(state.window)  # of the window, in one byte
    out = history[state.window.size:]
    out ^= steps(dx, k, pi_letter(state.kernel.variant, int(parity)) << 8)
    window = state.window = np.array(_leaving(history[n // 8:], n % 8, state.window.size))
    window[0] &= 255 >> pad
    return np.unpackbits(out, count=n)


def _table_loop(dx, k: int, letter: int) -> np.ndarray:
    """The masked bytes, one Python iteration and table lookup each."""
    masked, carry = _byte_steps(min(k, 9))
    pad = -k % 8
    history = bytearray(-(-k // 8))  # the window's m, all 0
    emit = history.append
    if k <= 8:
        for dx_b in memoryview(dx):
            i = dx_b ^ letter
            emit(masked[i])
            letter = carry[i]
    # Above, m is read while it grows, a padded window behind the appends.
    elif pad:
        ahead = iter(history)
        next(ahead)
        for dx_b, h0, h1 in zip(memoryview(dx), history, ahead):
            i = dx_b ^ letter ^ ((h0 << 8 | h1) >> (8 - pad) & 255)
            emit(masked[i])
            letter = carry[i]
    else:
        for dx_b, h0 in zip(memoryview(dx), history):
            i = dx_b ^ letter ^ h0
            emit(masked[i])
            letter = carry[i]
    return np.frombuffer(history, np.uint8, offset=-(-k // 8))


def _block_scan(dx, k: int, letter: int) -> np.ndarray:
    """The table loop's masked bytes above order 8, a block of k // 8 bytes
    per round of numpy calls: every m leaving the window during a block is
    from before it.

    Within a block, the letter entering each byte is one segmented prefix
    XOR of the loop's letters, shifted by 8: a byte with d != 0 resets the
    letter (no m feeds back within it) and starts a new segment, and any
    other byte XORs the letter by its final letter from letter 0.
    """
    masked = np.frombuffer(_byte_steps(9)[0], np.uint8)
    final = np.frombuffer(_byte_steps(9)[1], np.uint16)
    pad = -k % 8
    start = -(-k // 8)
    history = np.zeros(start + dx.size, np.uint8)
    block = k // 8
    # Segment starts: position 0 (the letter entering the block) and the
    # position after each resetting byte.
    positions = np.arange(min(block, dx.size) + 1)
    for b in range(0, dx.size, block):
        m = min(block, dx.size - b)
        idx = dx[b:b + m] ^ _leaving(history[b:], pad, m)
        step = np.empty(m + 1, np.uint16)
        step[0] = letter
        final.take(idx, out=step[1:])
        anchor = np.empty(m + 1, np.intp)
        anchor[0] = 0
        np.multiply(idx >= 512, positions[1:m + 1], out=anchor[1:])  # d != 0
        np.maximum.accumulate(anchor, out=anchor)
        run = np.bitwise_xor.accumulate(step)
        # The letters entering bytes b .. b + m: the run since the segment start.
        letters = run ^ (run ^ step).take(anchor)
        idx |= letters[:m]
        masked.take(idx, out=history[start + b:start + b + m])
        letter = letters[m]
    return history[start:]


def exact_conditional_entropy(kernel: KernelSpec, m: int) -> float:
    """Order-m conditional entropy of the stationary process, bits/letter,
    at any order: 1 for m <= order, as blocks up to the order are uniform,
    and the binary entropy of pi for m > order, as a letter after `order`
    others has probability pi or 1 - pi."""
    if m < 1:
        raise ValueError("entropy order must be positive")
    return 1.0 if m <= kernel.order else limit_entropy(kernel.pi)


def limit_entropy(pi: float) -> float:
    """Binary entropy of pi in bits: the per-letter entropy rate of any
    kernel with parameter pi."""
    if not 0.0 < pi < 1.0:
        raise ValueError(f"pi must lie strictly inside (0, 1), got {pi!r}")
    return -(pi * math.log2(pi) + (1.0 - pi) * math.log2(1.0 - pi))
