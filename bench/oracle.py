"""Reference implementations of every stream and report the benchmark checks.

This module restates the package's documented contracts from scratch and
shares no code with it, so that a change to the package cannot change the
reference along with the output it is checked against:

* the counter-mode splitmix64 bit stream (bits least significant first);
* uniform draws of 53 bits each, first bit most significant;
* the order-k sampler: emit 0 iff the draw is below P(0 | window), where
  P(0 | window) is pi for an even window parity and 1 - pi for an odd one;
* the power-of-two growing-order combination;
* the seed expander: rate-matched bias by bisection, the 62-bit binary
  range decoder (zeros past the end of the code word), and the conversion
  y_i = x_i XOR parity(previous k outputs);
* overlapping-window block counts with exact chi-square summaries, and the
  chi-square p-value as a regularized upper incomplete gamma function
  (series plus Lentz continued fraction, Numerical Recipes section 6.2).
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def counter_bits(seed: int, n: int) -> np.ndarray:
    """First n bits of the counter-mode stream keyed by seed, as uint8."""
    blocks = -(-n // 64)
    ctr = np.arange(1, blocks + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _M64) + ctr * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return np.unpackbits(z.astype("<u8").view(np.uint8), bitorder="little")[:n]


def uniform_draws(bits: np.ndarray) -> np.ndarray:
    """Reals in [0, 1) from consecutive 53-bit groups, first bit highest."""
    rows = bits.reshape(-1, 53)
    mantissa = np.zeros(rows.shape[0], dtype=np.uint64)
    for j in range(53):
        mantissa <<= np.uint64(1)
        mantissa |= rows[:, j]
    return mantissa.astype(np.float64) * 2.0 ** -53


def kernel_stream(order: int, pi: float, seed: int, n: int) -> np.ndarray:
    """n bits of the order-`order` PLAIN kernel stream for one seed: the
    first `order` source bits are the initial window, the rest are draws."""
    bits = counter_bits(seed, order + 53 * n)
    u = uniform_draws(bits[order:])
    zero_if_even = (u < pi).tolist()
    zero_if_odd = (u < 1.0 - pi).tolist()
    ext = bytearray(bits[:order].tobytes())
    par = sum(ext) & 1
    for i in range(n):
        y = 0 if (zero_if_odd[i] if par else zero_if_even[i]) else 1
        ext.append(y)
        par ^= y ^ ext[i]
    return np.frombuffer(bytes(ext[order:]), dtype=np.uint8)


def ladder_stream(components, cuts, n: int) -> np.ndarray:
    """Growing-order combination: component j is XORed into every position
    past cut j-1; `components` holds (order, pi, seed) triples."""
    starts = [0] + [c for c in cuts if c < n]
    acc = np.zeros(n, dtype=np.uint8)
    for (order, pi, seed), start in zip(components, starts):
        acc[start:] ^= kernel_stream(order, pi, seed, n)[start:]
    return acc


def binary_entropy(p: float) -> float:
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def entropy_inverse(h: float) -> float:
    """The p in (0, 1/2] with binary entropy h: bisection to 1e-12,
    at most 200 halvings, floored at 1e-9."""
    if h >= 1.0:
        return 0.5
    lo, hi = 1e-9, 0.5
    if binary_entropy(lo) >= h:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        err = binary_entropy(mid) - h
        if abs(err) <= 1e-12:
            return mid
        if err < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def range_decode(code: np.ndarray, pi: float, n: int, precision: int = 62) -> list[int]:
    """Decode n iid bits with P(0) = pi from a binary range-coder code word.

    The model is P(0) = f0 / total with total = 2^min(32, precision - 3)
    and f0 = round(pi * total) clamped to [1, total - 1].  Registers are
    `precision` bits wide; underflow is resolved by the E3 (middle-half)
    expansion; bits past the end of the code word read as 0.
    """
    total = 1 << min(32, precision - 3)
    f0 = min(max(int(round(pi * total)), 1), total - 1)
    mask = (1 << precision) - 1
    half_mask = mask >> 1
    top = 1 << (precision - 1)
    quarter = top >> 1
    stream = code.tolist() + [0]
    pos, end = 0, len(stream) - 1

    def bit() -> int:
        nonlocal pos
        b = stream[pos]
        if pos < end:
            pos += 1
        return b

    value = 0
    for _ in range(precision):
        value = (value << 1) | bit()
    low, high = 0, mask
    out = []
    for _ in range(n):
        span = high - low + 1
        if ((value - low + 1) * total - 1) // span < f0:
            out.append(0)
            high = low + (span * f0) // total - 1
        else:
            out.append(1)
            low = low + (span * f0) // total
        while not (low ^ high) & top:
            value = ((value << 1) & mask) | bit()
            low = (low << 1) & mask
            high = ((high << 1) & mask) | 1
        while low & ~high & quarter:
            value = (value & top) | ((value << 1) & half_mask) | bit()
            low = (low << 1) & half_mask
            high = ((high << 1) & half_mask) | top | 1
    return out


def convert(x, window) -> np.ndarray:
    """y_i = x_i XOR parity of the previous len(window) outputs, with the
    outputs preceded by `window`."""
    ext = bytearray(bytes(window))
    par = sum(ext) & 1
    for i, xi in enumerate(x):
        y = xi ^ par
        ext.append(y)
        par ^= y ^ ext[i]
    return np.frombuffer(bytes(ext[len(window):]), dtype=np.uint8)


def expand_stream(seed_bits: np.ndarray, order: int, n: int) -> np.ndarray:
    """Seed expansion: window = first `order` seed bits, the rest is a code
    word decoded at the bias whose entropy matches (|seed| - order) / n."""
    pi = entropy_inverse((seed_bits.size - order) / n)
    decoded = range_decode(seed_bits[order:], pi, n)
    return convert(decoded, seed_bits[:order].tolist())


def encode(bits: np.ndarray, fmt: str) -> bytes:
    """Wire encoding: packed is LSB-first per byte, ascii01 ends in a newline."""
    if fmt == "packed":
        return np.packbits(bits, bitorder="little").tobytes()
    if fmt == "ascii01":
        return (bits + np.uint8(48)).tobytes() + b"\n"
    raise ValueError(f"no reference encoding for {fmt!r}")


def gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x)."""
    if x <= 0.0:
        return 1.0
    log_prefix = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        for _ in range(1_000_000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return max(0.0, 1.0 - total * math.exp(log_prefix))
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1_000_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(log_prefix) * h


def block_report(bits: np.ndarray, m: int, alpha: float) -> dict:
    """Exact summary of the overlapping m-windows of a stream: the fields
    of one `analyze` report line, formatted as the report prints them."""
    windows = bits.size - m + 1
    values = np.zeros(windows, dtype=np.int64)
    for j in range(m):
        values = (values << 1) | bits[j:j + windows]
    counts = np.bincount(values, minlength=1 << m)
    # Deviation of count * 2^m from the window count; exact in Python ints.
    dev = (counts.astype(np.int64) << m) - windows
    scale = windows << m
    chi_square = float(Fraction(sum(d * d for d in dev.tolist()), scale))
    max_abs_dev = float(Fraction(int(np.abs(dev).max()), scale))
    df = (1 << m) - 1
    p_value = gammaincc(df / 2.0, chi_square / 2.0)
    return {
        "block_len": m,
        "windows": windows,
        "df": df,
        "max_abs_dev": f"{max_abs_dev:.6e}",
        "chi_square": f"{chi_square:.6g}",
        "p_value": p_value,
        "verdict": "ok" if p_value >= alpha else "REJECT",
    }
