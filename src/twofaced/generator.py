"""Sequential sampling from a kernel and exact finite-horizon analysis.

Sampling follows a fixed inverse-transform convention so that runs are
bit-reproducible: at each step the generator draws a uniform real u and
emits 0 iff u < P(0 | context).

The exact operations treat the chain on 2^k context states explicitly:
`propagate` advances a state distribution, `exact_block_distribution`
yields the law of a length-m window at a given offset, and
`exact_conditional_entropy` evaluates the order-m conditional entropy of
the stationary (uniform-initial) process in bits per letter.  These are
desk-scale tools; they are capped at 2^order states and at windows of
min(order+8, 24) bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bitseq import BitSequence, as_bit_array
from .errors import CapacityError
from .kernels import (KernelSpec, KernelTable, TABLE_ORDER_CAP, context_to_int,
                      int_to_context, kernel_table, pi_letter)
from .sources import BitSource
from .stats import BLOCK_LEN_CAP

EXTENSION_CAP = 8


@dataclass
class GeneratorState:
    """A kernel plus the sliding window of the last `order` emitted bits.

    The window is stored as one integer, oldest bit most significant;
    `context_to_int` and `int_to_context` are its only conversions to and
    from bit form.  Single-owner and sequential: the Markov dependence
    forbids parallel emission within one stream.
    """

    kernel: KernelSpec
    context: int
    steps_emitted: int = 0

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
    is below P(0 | the window at that step)."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    kernel = state.kernel
    k = kernel.order
    u = reals.reals(n)
    # Per-step decisions precomputed for both pi-letters; the pi-letter
    # flips with the window parity as one bit enters and one leaves.
    ge_pi = (u >= kernel.pi).tolist()
    ge_q = (u >= 1.0 - kernel.pi).tolist()
    buf = bytearray(state.context_bits())
    letter = pi_letter(kernel.variant, state.context)
    append = buf.append
    for i in range(n):
        y = ge_q[i] if letter else ge_pi[i]
        append(y)
        letter ^= y ^ buf[i]
    out = bytes(buf[k:])
    state.context = context_to_int(buf[-k:])
    state.steps_emitted += n
    return BitSequence._wrap(np.frombuffer(out, dtype=np.uint8))


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
    if m < 1:
        raise ValueError("entropy order must be positive")
    pm = exact_block_distribution(
        kernel, StateDistribution.uniform(kernel.order), 0, m)
    ctx = pm.reshape(-1, 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = pm / np.repeat(ctx, 2)
        terms = np.where(pm > 0.0, pm * np.log2(ratio), 0.0)
    return float(-terms.sum())


def limit_entropy(pi: float) -> float:
    """Binary entropy of pi in bits: the per-letter entropy rate of any
    kernel with parameter pi."""
    if not 0.0 < pi < 1.0:
        raise ValueError(f"pi must lie strictly inside (0, 1), got {pi!r}")
    return -(pi * math.log2(pi) + (1.0 - pi) * math.log2(1.0 - pi))
