"""Literal forms of the paper's definitions, kept to check the fast paths.

It lives in the test tree, so the installed package does not ship it;
nothing in the package or the scripts imports it, and the tests do.  Each
function here restates a definition the production code implements
another way:

* `cond_prob_recursive` follows the kernel's order-doubling recursion
  instead of the parity closed form of `kernels.cond_prob`.
* `m_select_definitional` derives the conversion's per-bit selector from
  that recursion instead of the parity of the window.
* `generate_by_conversion` samples a kernel by thresholding the draws
  into a biased stream and converting it; it agrees with
  `generator.generate` in law, not bit for bit.
* `StateDistribution`, `propagate`, `exact_block_distribution` and
  `chain_conditional_entropy` run the chain on the 2^k context words,
  where `generator.exact_conditional_entropy` is the closed form.  They
  cap the order and the window length before allocating a law.
* `occurrence_count` ANDs m shifted comparisons for one word and
  `window_counts` rebuilds the m-windows from the bits for each block
  length, where `stats` folds every length down from one histogram.
* `ReplayRealSource` replays canned uniform draws; its `at_least`
  compares the floats, where `UniformRealSource.at_least` compares bit
  fields.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from twofaced.bitseq import BitSequence, as_bit_array
from twofaced.errors import CapacityError, SourceExhaustedError
from twofaced.generator import GeneratorState, init_fixed
from twofaced.kernels import (KernelSpec, KernelTable, TABLE_ORDER_CAP, Variant, _check_bit,
                              as_context, context_to_int, kernel_table)
from twofaced.stats import BLOCK_LEN_CAP, conditional_entropy
from twofaced.transform import transform

EXTENSION_CAP = 8


def flipped(variant: Variant) -> Variant:
    """The other family: a leading 1 in the context swaps PLAIN and BAR."""
    return Variant.BAR if variant is Variant.PLAIN else Variant.PLAIN


@lru_cache(maxsize=None)
def _pi_branch_recursive(variant: Variant, next_bit: int, context: tuple) -> bool:
    if len(context) == 1:
        same = next_bit == context[0]
        return same if variant is Variant.PLAIN else not same
    head, rest = context[0], context[1:]
    return _pi_branch_recursive(variant if head == 0 else flipped(variant),
                                next_bit, rest)


def pi_branch_recursive(variant: Variant, next_bit: int, context) -> bool:
    """Inductive definition of the pi/(1-pi) branch, memoized."""
    return _pi_branch_recursive(variant, next_bit, tuple(context))


def cond_prob_recursive(spec: KernelSpec, next_bit: int, context) -> float:
    """P(next_bit | context) by the literal order-doubling recursion."""
    bits = tuple(as_context(context, spec.order).tolist())
    _check_bit(next_bit)
    return spec.pi if pi_branch_recursive(spec.variant, next_bit, bits) else 1.0 - spec.pi


def m_select_definitional(order: int, x_bit: int, context,
                          variant: Variant = Variant.PLAIN) -> int:
    """The conversion's output letter for one input bit, derived from the
    kernel definition: x=0 selects the letter whose conditional
    probability is pi, x=1 the other one."""
    bits = tuple(as_context(context, order).tolist())
    if x_bit not in (0, 1):
        raise ValueError(f"input bit must be 0 or 1, got {x_bit!r}")
    pi_letter = 0 if pi_branch_recursive(variant, 0, bits) else 1
    return pi_letter if x_bit == 0 else 1 - pi_letter


def generate_by_conversion(state: GeneratorState, n: int, reals) -> BitSequence:
    """Sampling with the same output law as `generate`: threshold the
    draws into a biased stream (0 iff draw < pi) and feed it through the
    stream conversion seeded with the current window.

    The two routes agree in distribution, not bit-for-bit under a shared
    draw sequence; tests cross-check them against the exact block laws.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    kernel = state.kernel
    v = np.array(state.context_bits(), dtype=np.uint8)
    y = transform(reals.reals(n) >= kernel.pi, v, kernel.variant)
    state.window = init_fixed(kernel, np.concatenate([v, y.array])[-kernel.order:]).window
    return y


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


def chain_conditional_entropy(kernel: KernelSpec, m: int) -> float:
    """`generator.exact_conditional_entropy` from the chain's stationary
    law of the m-windows."""
    return conditional_entropy(exact_block_distribution(
        kernel, StateDistribution.uniform(kernel.order), 0, m))


def occurrence_count(seq, u) -> int:
    """Number of overlapping occurrences of the word u in seq."""
    bits = as_bit_array(seq)
    word = as_bit_array(u)
    m = word.size
    if m < 1:
        raise ValueError("pattern must contain at least one bit")
    if m > bits.size:
        raise ValueError(f"pattern length {m} exceeds sequence length {bits.size}")
    count = bits.size - m + 1
    hit = np.ones(count, dtype=bool)
    for j in range(m):
        hit &= bits[j:j + count] == word[j]
    return int(np.count_nonzero(hit))


def window_counts(seq, m: int) -> np.ndarray:
    """Occurrences of every m-word as an overlapping window, index = word
    read oldest bit high; the m-windows are rebuilt from the bits."""
    bits = as_bit_array(seq)
    count = bits.size - m + 1
    w = np.zeros(count, dtype=np.int64)
    for j in range(m):
        w <<= 1
        w |= bits[j:j + count]
    return np.bincount(w, minlength=1 << m)


class ReplayRealSource:
    """Canned uniform draws, for tests and worked examples."""

    def __init__(self, values):
        self._values = [float(v) for v in values]
        self._pos = 0

    def reals(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("draw count must be nonnegative")
        if self._pos + n > len(self._values):
            raise SourceExhaustedError("replayed real source exhausted")
        out = np.array(self._values[self._pos:self._pos + n], dtype=np.float64)
        self._pos += n
        return out

    def at_least(self, n: int, thresholds) -> list[np.ndarray]:
        u = self.reals(n)
        return [u >= t for t in thresholds]
