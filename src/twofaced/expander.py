"""Stretch a short seed into a long stream with uniform short-block stats.

Pipeline: the first k seed bits become the initial window; the remaining
bits are treated as the compressed form of a biased bit stream.  The
bias pi is chosen so the binary entropy H(pi) matches the available rate
h = (|seed| - k) / N, the code bits are decoded into N biased bits with
a fixed-precision arithmetic decoder, and the conversion of
:mod:`.transform` turns that biased stream into the output.  The whole
map is deterministic in (seed, config).

The coder is an integer range coder in the classic reference style
(Witten, Neal & Cleary 1987): `precision`-bit low/high registers, carry
handling via pending inverted bits, termination by a single 1 bit.  Its
functions take `precision=` in [16, 62]; `expand` uses DEFAULT_PRECISION.
Encoder and decoder are one function each: a 1 raises `low`, a 0 lowers
`high`.  The encoder steps symbol by symbol, the decoder through runs of
1s, renormalising only at run ends, bit-identical to a per-symbol
decoder.  `expand` only needs pi <= 1/2, where the runs are long; above
1/2 decoding is correct but slower, as every 0 ends a run.  Past the end
of the code word the decoder reads zeros (decoding is total; the induced
tail bias is a documented artifact of finite seeds).  Golden vectors in
the test suite pin the exact bits.

A run ends at the first step whose span is at most a threshold `stop`
fixed for the run.  Each step takes d = span * f0 >> sh from the span,
and d only falls as the span does, so no step takes more than the first.
The next (span - stop - 1) // d steps therefore all keep span > stop, and
the decoder takes them in unchecked groups of 8, then bounds again.  The
bound is integer arithmetic on the decoder's own span, so no step is
taken that the checked loop would not take, and the checked loop
finishes every run.  Where runs are short (total / f0, about 1 / pi,
below `_GROUP_RUN`) the groups are not tried.
"""
from __future__ import annotations

import operator
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .bitseq import BitSequence, as_bit_array
from .generator import limit_entropy
from .kernels import PI_FLOOR
from .transform import transform

DEFAULT_PRECISION = 62
ENTROPY_TOL = 1e-12  # |H(pi) - h| at which entropy_inverse stops
# The decoder steps runs of 1s in unchecked groups of 8 when total / f0, about
# 1 / pi, reaches this: at pi up to about 1/256 (0.0039).  At pi 0.05 and
# above the groups lose, as runs are too short to pay for the bound.
_GROUP_RUN = 256


class ExpanderConfig(NamedTuple("ExpanderConfig", [("order", int), ("target_len", int)])):
    """Expansion parameters: output order and target length."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # else _make and _replace skip __new__

    def __new__(cls, order: int, target_len: int):
        values = []
        for name, value in zip(cls._fields, (order, target_len)):
            try:
                values.append(operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        order, target_len = values
        if order < 1:
            raise ValueError("order must be positive")
        if target_len < 1:
            raise ValueError("target length must be positive")
        return super().__new__(cls, order, target_len)


def entropy_inverse(h: float) -> float:
    """The pi in (0, 1/2] with binary entropy h, found by bisection.

    H is strictly increasing on (0, 1/2], so bisection converges; the
    result is floored at PI_FLOOR to avoid log degeneracy.
    """
    if not 0.0 < h <= 1.0:
        raise ValueError(f"entropy must lie in (0, 1], got {h!r}")
    if h >= 1.0:
        return 0.5
    lo, hi = PI_FLOOR, 0.5
    if limit_entropy(lo) >= h:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        err = limit_entropy(mid) - h
        if abs(err) <= ENTROPY_TOL:
            return mid
        if err < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _coder(pi: float, precision: int) -> tuple[int, ...]:
    """Check the coder's arguments; return its model (f0, total, sh), where
    total = 1 << sh, and registers (mask, half_mask, top, second)."""
    if not 0.0 < pi < 1.0:
        raise ValueError(f"pi must lie strictly inside (0, 1), got {pi!r}")
    # At 3 bits the split leaves f0 = 0, and narrower coders cannot shift.
    # In range, every step of a run takes at least 2 from a span above a
    # quarter of the range: the decoder's step bound divides by that step.
    if not 16 <= precision <= 62:
        raise ValueError("precision must lie in [16, 62]")
    # P(0) = pi on an integer cumulative scale that fits the coder's range
    # invariant: total at most a quarter of the range.
    sh = min(32, precision - 3)
    total = 1 << sh
    f0 = min(max(int(round(pi * total)), 1), total - 1)
    mask = (1 << precision) - 1
    top = 1 << (precision - 1)
    return f0, total, sh, mask, mask >> 1, top, top >> 1


def bernoulli_encode(x, pi: float, precision: int = DEFAULT_PRECISION) -> BitSequence:
    """Arithmetic-code a bit stream under the iid model P(0) = pi."""
    f0, _, sh, mask, half_mask, top, second = _coder(pi, precision)
    low, high = 0, mask
    pending = 0  # straddle shifts whose bits follow the next emitted bit, inverted
    out = bytearray()
    for b in as_bit_array(x).tolist():
        split = ((high - low + 1) * f0) >> sh
        if b:
            low += split
        else:
            high = low + split - 1
        while ((low ^ high) & top) == 0:
            bit = low >> (precision - 1)
            out.append(bit)
            if pending:
                out.extend([bit ^ 1] * pending)
                pending = 0
            low = (low << 1) & mask
            high = ((high << 1) & mask) | 1
        while low & ~high & second:
            pending += 1
            low = (low << 1) & half_mask
            high = ((high << 1) & half_mask) | top | 1
    # The interval always straddles the midpoint here, so the point
    # "1 followed by zeros" lies inside it.
    out.append(1)
    return BitSequence._wrap(np.frombuffer(out, dtype=np.uint8))


def bernoulli_decode(code, pi: float, n: int,
                     precision: int = DEFAULT_PRECISION) -> BitSequence:
    """Decode exactly n bits under the iid model P(0) = pi.

    Bits past the end of the code word are taken as zero, so any code
    word decodes to any requested length.
    """
    f0, total, sh, mask, half_mask, top, second = _coder(pi, precision)
    if n < 0:
        raise ValueError("output length must be nonnegative")
    f1 = total - f0
    # Exhausted code words continue with zeros: decoding is total.  `ones`
    # runs to the code's last 1.
    ones = iter(np.trim_zeros(as_bit_array(code), "b").tolist())
    read = chain(ones, repeat(0)).__next__
    point = 0
    for _ in range(precision):
        point = (point << 1) | read()
    low, high = 0, mask
    arr = np.ones(n, np.uint8)
    out = memoryview(arr)  # item writes cost less through a memoryview than numpy
    i = 0
    grouped = total >= f0 * _GROUP_RUN
    while True:
        if point == low and not operator.length_hint(ones):
            # 0 is next, and renormalising on 0s keeps point == low: all are 0.
            arr[i:] = 0
            break
        # Decode a run of 1s.  Within the run `high` stays put and only
        # the span shrinks, so every decision compares the span with a
        # threshold fixed for the run: a 0 comes next iff span <= zero_at
        # (the coder's test `point - low < span * f0 // total` solved for
        # span), and a renormalisation is due iff span <= renorm_at (both
        # ends in one half of the range, or both inside its middle half
        # [second, top + second)).
        span = high - low + 1
        zero_at = ((high - point) << sh) // f1
        renorm_at = high + 1 - (top if high >= top + second else second)
        stop = max(zero_at, renorm_at)
        if grouped:
            # No step takes more than the first, span * f0 >> sh, so this
            # many steps all leave span > stop (see the module docstring).
            while (groups := min((span - stop - 1) // (span * f0 >> sh), n - i) >> 3) > 0:
                for _ in repeat(None, groups):
                    span -= span * f0 >> sh
                    span -= span * f0 >> sh
                    span -= span * f0 >> sh
                    span -= span * f0 >> sh
                    span -= span * f0 >> sh
                    span -= span * f0 >> sh
                    span -= span * f0 >> sh
                    span -= span * f0 >> sh
                i += groups << 3
        for i in range(i, n):
            if span <= stop:
                break
            span -= (span * f0) >> sh
        else:
            break
        low = high + 1 - span
        if span > renorm_at:  # the run ends in a 0 at position i
            high = low + ((span * f0) >> sh) - 1
            out[i] = 0
            i += 1
        while ((low ^ high) & top) == 0:
            point = ((point << 1) & mask) | read()
            low = (low << 1) & mask
            high = ((high << 1) & mask) | 1
        while low & ~high & second:
            point = (point & top) | ((point << 1) & half_mask) | read()
            low = (low << 1) & half_mask
            high = ((high << 1) & half_mask) | top | 1
    return BitSequence._wrap(arr)


def expand(seed, config: ExpanderConfig) -> BitSequence:
    """Deterministically expand a seed to `config.target_len` bits.

    The first `order` seed bits form the initial window; the rest are
    decoded at the rate-matched bias and run through the conversion.
    """
    seed_bits = as_bit_array(seed)
    k = config.order
    n = config.target_len
    if seed_bits.size <= k:
        raise ValueError(
            f"seed must be longer than the order ({seed_bits.size} <= {k})")
    h = (seed_bits.size - k) / n
    if h > 1.0:
        raise ValueError(
            f"target length {n} is below the code length {seed_bits.size - k}")
    initial = seed_bits[:k]
    code = seed_bits[k:]
    pi = entropy_inverse(h)
    decoded = bernoulli_decode(code, pi, n)
    return transform(decoded, initial)
