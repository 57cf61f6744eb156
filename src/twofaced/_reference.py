"""Literal forms of the paper's definitions, kept to check the fast paths.

Nothing in the package imports this module; the tests do.  Each function
here restates a definition the production code implements another way:

* `cond_prob_recursive` follows the kernel's order-doubling recursion
  instead of the parity closed form of `kernels.cond_prob`.
* `m_select_definitional` derives the conversion's per-bit selector from
  that recursion instead of the parity of the window.
* `generate_by_conversion` samples a kernel by thresholding the draws
  into a biased stream and converting it; it agrees with
  `generator.generate` in law, not bit for bit.
* `window_counts` rebuilds the m-windows from the bits for each block
  length, where `stats` folds every length down from one histogram.
* `ReplayRealSource` replays canned uniform draws; its `at_least`
  compares the floats, where `UniformRealSource.at_least` compares bit
  fields.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bitseq import BitSequence, as_bit_array
from .errors import SourceExhaustedError
from .generator import GeneratorState
from .kernels import KernelSpec, Variant, _check_bit, as_context, context_to_int
from .transform import transform


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
    bits = as_context(context, spec.order)
    _check_bit(next_bit)
    return spec.pi if pi_branch_recursive(spec.variant, next_bit, bits) else 1.0 - spec.pi


def m_select_definitional(order: int, x_bit: int, context,
                          variant: Variant = Variant.PLAIN) -> int:
    """The conversion's output letter for one input bit, derived from the
    kernel definition: x=0 selects the letter whose conditional
    probability is pi, x=1 the other one."""
    bits = as_context(context, order)
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
    state.context = context_to_int(np.concatenate([v, y.array])[-kernel.order:])
    return y


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
