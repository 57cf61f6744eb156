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
handling via pending inverted bits, termination by a single 1 bit.  The
encoder steps symbol by symbol; the decoder steps through runs of the
more probable symbol, renormalising only where a run ends, with output
bit-identical to a per-symbol decoder.  A decoder that runs past the
end of the code word reads zeros (decoding is total; the induced tail
bias is a documented artifact of finite seeds).  The exact bit behavior
is pinned by golden vectors in the test suite.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .bitseq import BitSequence, as_bit_array
from .generator import limit_entropy
from .transform import transform

PI_FLOOR = 1e-9
DEFAULT_PRECISION = 62


@dataclass(frozen=True)
class ExpanderConfig:
    """Expansion parameters: output order, target length, coder width."""

    order: int
    target_len: int
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        for name in ("order", "target_len", "precision"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.order < 1:
            raise ValueError("order must be positive")
        if self.target_len < 1:
            raise ValueError("target length must be positive")
        if not 16 <= self.precision <= 62:
            raise ValueError("precision must lie in [16, 62]")


def entropy_inverse(h: float, tol: float = 1e-12) -> float:
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
        if abs(err) <= tol:
            return mid
        if err < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _freq_split(pi: float, precision: int) -> tuple[int, int]:
    """Quantize P(0)=pi onto an integer cumulative scale that fits the
    coder's range invariant (total <= quarter range)."""
    total = 1 << min(32, precision - 3)
    f0 = min(max(int(round(pi * total)), 1), total - 1)
    return f0, total


class _Encoder:
    def __init__(self, precision: int):
        self.precision = precision
        self.mask = (1 << precision) - 1
        self.top = 1 << (precision - 1)
        self.second = self.top >> 1
        self.low = 0
        self.high = self.mask
        self.out: list[int] = []
        self.pending = 0

    def _emit(self, bit: int) -> None:
        self.out.append(bit)
        if self.pending:
            self.out.extend([bit ^ 1] * self.pending)
            self.pending = 0

    def encode(self, cum_lo: int, cum_hi: int, total: int) -> None:
        span = self.high - self.low + 1
        self.high = self.low + (span * cum_hi) // total - 1
        self.low = self.low + (span * cum_lo) // total
        while ((self.low ^ self.high) & self.top) == 0:
            self._emit(self.low >> (self.precision - 1))
            self.low = (self.low << 1) & self.mask
            self.high = ((self.high << 1) & self.mask) | 1
        while (self.low & ~self.high & self.second) != 0:
            self.pending += 1
            self.low = (self.low << 1) & (self.mask >> 1)
            self.high = ((self.high << 1) & (self.mask >> 1)) | self.top | 1

    def finish(self) -> None:
        # The interval always straddles the midpoint here, so the point
        # "1 followed by zeros" lies inside it.
        self.out.append(1)


def bernoulli_encode(x, pi: float, precision: int = DEFAULT_PRECISION) -> BitSequence:
    """Arithmetic-code a bit stream under the iid model P(0) = pi."""
    if not 0.0 < pi < 1.0:
        raise ValueError(f"pi must lie strictly inside (0, 1), got {pi!r}")
    bits = as_bit_array(x)
    f0, total = _freq_split(pi, precision)
    enc = _Encoder(precision)
    for b in bits.tolist():
        if b == 0:
            enc.encode(0, f0, total)
        else:
            enc.encode(f0, total, total)
    enc.finish()
    return BitSequence(enc.out)


def bernoulli_decode(code, pi: float, n: int,
                     precision: int = DEFAULT_PRECISION) -> BitSequence:
    """Decode exactly n bits under the iid model P(0) = pi.

    Bits past the end of the code word are taken as zero, so any code
    word decodes to any requested length.
    """
    if not 0.0 < pi < 1.0:
        raise ValueError(f"pi must lie strictly inside (0, 1), got {pi!r}")
    if n < 0:
        raise ValueError("output length must be nonnegative")
    f0, total = _freq_split(pi, precision)
    sh = total.bit_length() - 1  # total is a power of two
    f1 = total - f0
    mask = (1 << precision) - 1
    half_mask = mask >> 1
    top = 1 << (precision - 1)
    second = top >> 1
    # Exhausted code words continue with zeros: decoding is total.
    read = chain(as_bit_array(code).tolist(), repeat(0)).__next__
    point = 0
    for _ in range(precision):
        point = (point << 1) | read()
    low, high = 0, mask
    ones = f0 <= f1  # the more probable symbol is 1
    out = bytearray([ones]) * n
    i = 0
    while True:
        # Decode a run of the more probable symbol.  Within the run one
        # end of the interval stays put (`high` for 1s, `low` for 0s) and
        # only the span shrinks, so every decision compares the span with
        # a threshold fixed for the run: the other symbol comes next iff
        # span <= lps_at (the coder's test `point - low < span * f0 //
        # total` solved for span), and a renormalisation is due iff
        # span <= renorm_at (both ends in one half of the range, or both
        # inside its middle half [second, top + second)).
        span = high - low + 1
        if ones:
            lps_at = ((high - point) << sh) // f1
            renorm_at = high + 1 - (top if high >= top + second else second)
            stop = max(lps_at, renorm_at)
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
        else:
            lps_at = (((point - low + 1) << sh) - 1) // f0
            renorm_at = (top + second if low >= second else top) - low
            stop = max(lps_at, renorm_at)
            for i in range(i, n):
                if span <= stop:
                    break
                span = (span * f0) >> sh
            else:
                break
            high = low + span - 1
            if span > renorm_at:  # the run ends in a 1 at position i
                low += (span * f0) >> sh
                out[i] = 1
                i += 1
        while ((low ^ high) & top) == 0:
            point = ((point << 1) & mask) | read()
            low = (low << 1) & mask
            high = ((high << 1) & mask) | 1
        while low & ~high & second:
            point = (point & top) | ((point << 1) & half_mask) | read()
            low = (low << 1) & half_mask
            high = ((high << 1) & half_mask) | top | 1
    return BitSequence._wrap(np.frombuffer(out, dtype=np.uint8))


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
    decoded = bernoulli_decode(code, pi, n, config.precision)
    return transform(decoded, initial)
