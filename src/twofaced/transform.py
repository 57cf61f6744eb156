"""Deterministic conversion of a bit stream into a kernel-law stream.

Given an input stream x and a k-bit initial word v, the conversion
emits y_i = x_i XOR parity(y_{i-k} ... y_{i-1}), sliding the window over
its own previous outputs.  Feeding it bits with P(x=0) = pi produces a
stream distributed exactly as the order-k PLAIN kernel with parameter
pi; the map itself never looks at pi.  In general x_i = 0 selects the
letter that `kernels.pi_letter` gives probability pi, so the BAR variant
differs from PLAIN by a constant 1 XORed onto the input.

The conversion is invertible given v: x_i = y_i XOR parity(window), see
`inverse_transform`.  Whole sequences are processed with a vectorized
prefix-XOR formulation.  A chunked caller carries only the last k output
bits: after `y = transform(x, v, variant)` the next chunk's initial word
is `np.concatenate([v, y])[-k:]`; for `inverse_transform(y, v, variant)`
it is the same, the last k bits of v followed by the chunk's input y.
"""
from __future__ import annotations

import numpy as np

from .bitseq import BitSequence, as_bit_array
# Unused here, but bench/tracer.py wraps context_to_int and int_to_context by this module.
from .kernels import Variant, context_to_int, int_to_context, pi_letter


def _transform(x: np.ndarray, v: np.ndarray, offset: int) -> np.ndarray:
    # Prefix-XOR form: with c_i the running XOR of the extended output,
    # c_i = x_i ^ offset ^ c_{i-k-1}, so the c-chain splits into k+1
    # independent cumulative-XOR strides and y_i = c_i ^ c_{i-1}.  Row 0
    # holds the seeds c_{-k-1} .. c_{-1} (0 and the prefix XORs of v); the
    # rows below it hold x ^ offset, zero-padded to whole rows.
    k = v.size
    n = x.size
    c = np.zeros((-(-n // (k + 1)) + 1, k + 1), dtype=np.uint8)
    np.bitwise_xor.accumulate(v, out=c[0, 1:])
    flat = c.reshape(-1)
    np.bitwise_xor(x, np.uint8(offset), out=flat[k + 1:k + 1 + n])
    np.bitwise_xor.accumulate(c, axis=0, out=c)
    return flat[k + 1:k + 1 + n] ^ flat[k:k + n]


def transform(x, v, variant: Variant = Variant.PLAIN) -> BitSequence:
    """Convert stream x with initial word v; output length equals input
    length and the i-th output depends on x_i and the previous k outputs."""
    xb = as_bit_array(x)
    vb = as_bit_array(v)
    if vb.size < 1:
        raise ValueError("initial word must contain at least one bit")
    return BitSequence._wrap(_transform(xb, vb, pi_letter(variant, 0)))


def inverse_transform(y, v, variant: Variant = Variant.PLAIN) -> BitSequence:
    """Recover the input stream from an output stream and its initial word."""
    yb = as_bit_array(y)
    vb = as_bit_array(v)
    if vb.size < 1:
        raise ValueError("initial word must contain at least one bit")
    k = vb.size
    n = yb.size
    ext = np.concatenate([vb, yb])
    prefix = np.concatenate([np.zeros(1, np.uint8), np.bitwise_xor.accumulate(ext)])
    xb = yb ^ prefix[k:k + n] ^ prefix[:n]
    if pi_letter(variant, 0):
        xb ^= np.uint8(1)
    return BitSequence._wrap(xb)

