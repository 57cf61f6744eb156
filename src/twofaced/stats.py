"""Empirical verification suite: block frequencies, chi-square, entropy.

Counting is over overlapping windows: a sequence of length t has
t - m + 1 windows of length m, and frequencies divide by that window
count (the exact normalizer for the available windows).  A truly random
stream has every m-word frequency near 2^-m; the chi-square statistic
against that uniform expectation, with 2^m - 1 degrees of freedom,
quantifies the deviation.

Every block length up to M comes from one histogram of the M-windows.
Each smaller one is folded from the one above it: summing the pairs of
cells that differ only in the newest bit counts every m-window but the
last, which is the stream's final m bits.
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .bitseq import as_bit_array
from .errors import CapacityError

BLOCK_LEN_CAP = 24


def _window_values(bits: np.ndarray, m: int) -> np.ndarray:
    """Integer value of every overlapping m-bit window, oldest bit high,
    in uint16 up to m = 16 and in uint32 up to m = 32."""
    count = bits.size - m + 1
    dtype = np.uint16 if m <= 16 else np.uint32
    w = np.zeros(count, dtype=dtype)
    for j in range(m):
        w <<= 1
        w |= bits[j:j + count]
    return w


def _check_block_len(what: str, m: int, n: int) -> None:
    if m < 1:
        raise ValueError(f"{what} must be positive")
    if m > BLOCK_LEN_CAP:
        raise CapacityError(f"{what} {m} exceeds table cap {BLOCK_LEN_CAP}")
    if m > n:
        raise ValueError(f"{what} {m} exceeds sequence length {n}")


def _block_counts(bits: np.ndarray, lo: int, hi: int) -> list[np.ndarray]:
    """Counts of every m-word over the overlapping windows, m = lo..hi,
    folded down from the one histogram of hi-windows (module docstring).
    The hi-windows are built a chunk at a time, so their memory is bounded
    by the table size rather than the stream length."""
    step = 1 << max(16, hi)  # windows per chunk
    h = np.zeros(1 << hi, dtype=np.int64)
    for start in range(0, bits.size - hi + 1, step):
        h += np.bincount(_window_values(bits[start:start + step + hi - 1], hi),
                         minlength=1 << hi)
    tail = int(_window_values(bits[bits.size - hi:], hi)[0])  # low m bits: last m-window
    out = [h]
    for m in range(hi - 1, lo - 1, -1):
        h = h.reshape(-1, 2).sum(axis=1)
        h[tail & ((1 << m) - 1)] += 1
        out.append(h)
    return out[::-1]


class BlockStats(NamedTuple):
    """Frequency table of all m-words with its uniformity summaries."""

    block_len: int
    counts: np.ndarray
    windows: int
    max_abs_deviation: float
    chi_square: float
    df: int

    @property
    def p_value(self) -> float:
        return chi_square_pvalue(self.chi_square, self.df)


def block_frequencies(seq, m: int) -> BlockStats:
    """Count all overlapping m-windows and summarize deviation from 2^-m."""
    return analyze(seq, m, m)[0]


def conditional_entropy(law: np.ndarray) -> float:
    """-sum w log2(w / ctx) over a law or count table w of the m-words,
    where ctx sums the two continuations of each (m-1)-bit context and
    0 log 0 is 0.  For a law this is the order-m conditional entropy in
    bits per letter; for counts, divide by their total."""
    ctx = law.reshape(-1, 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = law / np.repeat(ctx, 2)
        terms = np.where(law > 0.0, law * np.log2(ratio), 0.0)
    return float(-terms.sum())


def empirical_conditional_entropy(seq, m: int) -> float:
    """Plug-in conditional entropy of order m in bits per letter.

    Context and continuation frequencies come from the m-window counts;
    0 log 0 is taken as 0, and contexts that never occur contribute zero
    (a warning reports how many were missing).
    """
    bits = as_bit_array(seq)
    _check_block_len("entropy order", m, bits.size)
    counts = _block_counts(bits, m, m)[0].astype(np.float64)
    ctx = counts.reshape(-1, 2).sum(axis=1)
    missing = int(np.count_nonzero(ctx == 0))
    if missing:
        warnings.warn(
            f"{missing} of {ctx.size} contexts never occur; "
            "they contribute zero to the estimate", stacklevel=2)
    return conditional_entropy(counts) / (bits.size - m + 1)


_EPS = 2.0 ** -52
_TINY = 1e-300
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_tail(a: float) -> float:
    """lgamma(a) - ((a - 1/2) ln a - a + ln(2 pi)/2), small for large a."""
    if a < 10.0:
        return math.lgamma(a) - ((a - 0.5) * math.log(a) - a + _HALF_LOG_2PI)
    r = 1.0 / (a * a)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / a


def _log_prefactor(a: float, x: float) -> float:
    """ln(x^a e^-x / Gamma(a)) without the cancellation of its large terms.

    Written as a (ln(x/a) - t) + ln(a)/2 - ln(2 pi)/2 - stirling_tail(a)
    with t = (x - a)/a, so the error stays near eps |x - a| rather than
    eps a ln x (which is 1e-8 relative at a = 2^23).
    """
    t = (x - a) / a
    log_ratio = math.log1p(t) if abs(t) < 0.5 else math.log(x / a)
    return a * (log_ratio - t) + 0.5 * math.log(a) - _HALF_LOG_2PI - _stirling_tail(a)


def _gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x), for a > 0 and x >= 0.

    Series for P = 1 - Q below x = a + 1, Lentz's continued fraction for
    Q above it (Numerical Recipes, section 6.2).  Both need about
    7.5 (10 + sqrt(a)) terms at worst (near x = a); twice that bounds
    the loop, and reaching the bound raises rather than return a
    truncated value.
    """
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    limit = int(16.0 * (10.0 + math.sqrt(a)))
    prefactor = math.exp(_log_prefactor(a, x))
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        for _ in range(limit):
            ap += 1.0
            term *= x / ap
            total += term
            if term < total * _EPS:
                return 1.0 - total * prefactor
    else:
        b = x + 1.0 - a
        c = 1.0 / _TINY
        d = 1.0 / b
        h = d
        for i in range(1, limit):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            if abs(d) < _TINY:
                d = _TINY
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _EPS:
                return prefactor * h
    raise ArithmeticError(f"incomplete gamma did not converge in {limit} terms "
                          f"at a={a!r}, x={x!r}")


def chi_square_pvalue(statistic: float, df: int) -> float:
    """Upper-tail probability of the chi-square law (0.0 at +inf; NaN raises)."""
    if math.isnan(statistic):
        raise ValueError("statistic must not be NaN")
    if statistic < 0.0:
        raise ValueError("statistic must be nonnegative")
    if df < 1:
        raise ValueError("degrees of freedom must be positive")
    return _gammaincc(df / 2.0, statistic / 2.0)


def check_block_range(max_block: int, min_block: int = 1) -> None:
    """The checks of `analyze` that need no input: 1 <= min <= max, and the
    first length over BLOCK_LEN_CAP, if any."""
    if min_block < 1 or max_block < min_block:
        raise ValueError("block range must satisfy 1 <= min <= max")
    if max_block > BLOCK_LEN_CAP:
        _check_block_len("block length", max(min_block, BLOCK_LEN_CAP + 1), max_block)


def analyze(seq, max_block: int, min_block: int = 1) -> list[BlockStats]:
    """Block statistics for every length in [min_block, max_block]."""
    if min_block < 1 or max_block < min_block:
        raise ValueError("block range must satisfy 1 <= min <= max")
    bits = as_bit_array(seq)
    # Every length is checked, in ascending order, before any counting.
    for m in range(min_block, max_block + 1):
        _check_block_len("block length", m, bits.size)
        expected = (bits.size - m + 1) / (1 << m)
        if expected < 5.0:
            warnings.warn(
                f"block length {m}: expected count per cell is {expected:.2f} (< 5); "
                "the chi-square approximation is unreliable", stacklevel=2)
    results = []
    for m, counts in zip(range(min_block, max_block + 1),
                         _block_counts(bits, min_block, max_block)):
        windows = bits.size - m + 1
        expected = windows / (1 << m)
        max_dev = float(np.abs(counts / windows - 2.0 ** -m).max())
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        counts.setflags(write=False)
        results.append(BlockStats(m, counts, windows, max_dev, chi2, (1 << m) - 1))
    return results


def report_text(stats: list[BlockStats], alpha: float = 1e-4) -> str:
    """Line-oriented report; a p-value below alpha is flagged REJECT."""
    lines = []
    for s in stats:
        p = s.p_value
        verdict = "ok" if p >= alpha else "REJECT"
        lines.append(
            f"block_len={s.block_len} windows={s.windows} "
            f"max_abs_dev={s.max_abs_deviation:.6e} chi_square={s.chi_square:.6g} "
            f"df={s.df} p_value={p:.6g} {verdict}")
    return "\n".join(lines) + "\n"


def report_csv(stats: list[BlockStats]) -> str:
    lines = ["block_len,windows,max_abs_deviation,chi_square,df,p_value"]
    for s in stats:
        lines.append(
            f"{s.block_len},{s.windows},{s.max_abs_deviation:.17g},"
            f"{s.chi_square:.17g},{s.df},{s.p_value:.17g}")
    return "\n".join(lines) + "\n"
