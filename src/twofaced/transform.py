"""Deterministic conversion of a bit stream into a kernel-law stream.

Given an input stream x and a k-bit initial word v, the conversion
emits y_i = x_i XOR parity(y_{i-k} ... y_{i-1}), sliding the window over
its own previous outputs.  Feeding it bits with P(x=0) = pi produces a
stream distributed exactly as the order-k PLAIN kernel with parameter
pi; the map itself never looks at pi.  The per-bit selector `m_select`
is the same rule for a single step, and `m_select_definitional` derives
it from the kernel recursion instead of the parity shortcut (the two
must agree bit-for-bit).

The conversion is invertible given v: x_i = y_i XOR parity(window), see
`inverse_transform`.  Whole sequences are processed with a vectorized
prefix-XOR formulation; `TransformState` + `transform_chunk` provide the
same map over chunked streams without buffering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitseq import BitSequence, as_bit_array
from .kernels import (Variant, as_context, context_to_int, int_to_context,
                      pi_branch_recursive)


def m_select(order: int, x_bit: int, context, variant: Variant = Variant.PLAIN) -> int:
    """Output letter for one input bit given the k-bit context window."""
    bits = as_context(context, order)
    if x_bit not in (0, 1):
        raise ValueError(f"input bit must be 0 or 1, got {x_bit!r}")
    par = 0
    for b in bits:
        par ^= b
    if variant is Variant.BAR:
        par ^= 1
    return x_bit ^ par


def m_select_definitional(order: int, x_bit: int, context,
                          variant: Variant = Variant.PLAIN) -> int:
    """Same map, derived from the kernel definition: x=0 selects the
    letter whose conditional probability is pi, x=1 the other one."""
    bits = as_context(context, order)
    if x_bit not in (0, 1):
        raise ValueError(f"input bit must be 0 or 1, got {x_bit!r}")
    pi_letter = 0 if pi_branch_recursive(variant, 0, bits) else 1
    return pi_letter if x_bit == 0 else 1 - pi_letter


def _transform_plain(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Prefix-XOR form: with c_i the running XOR of the extended output,
    # c_i = x_i ^ c_{i-k-1}, so the c-chain splits into k+1 independent
    # cumulative-XOR strides and y_i = c_i ^ c_{i-1}.
    k = v.size
    n = x.size
    if n == 0:
        return x
    seeds = np.concatenate([np.zeros(1, np.uint8), np.bitwise_xor.accumulate(v)])
    length = k + 1
    rows = -(-n // length)
    padded = np.zeros(rows * length, dtype=np.uint8)
    padded[:n] = x
    stacked = np.vstack([seeds[None, :], padded.reshape(rows, length)])
    c = np.bitwise_xor.accumulate(stacked, axis=0)
    c_full = np.concatenate([seeds, c[1:].reshape(-1)[:n]])
    return c_full[k + 1:] ^ c_full[k:-1]


def transform(x, v, variant: Variant = Variant.PLAIN) -> BitSequence:
    """Convert stream x with initial word v; output length equals input
    length and the i-th output depends on x_i and the previous k outputs."""
    xb = as_bit_array(x)
    vb = as_bit_array(v)
    if vb.size < 1:
        raise ValueError("initial word must contain at least one bit")
    if variant is Variant.BAR:
        xb = xb ^ np.uint8(1)
    return BitSequence._wrap(_transform_plain(xb, vb))


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
    window_parity = prefix[k:k + n] ^ prefix[:n]
    xb = yb ^ window_parity
    if variant is Variant.BAR:
        xb = xb ^ np.uint8(1)
    return BitSequence._wrap(xb)


@dataclass
class TransformState:
    """Persistent window for chunked conversion of an unbounded stream,
    stored as one integer like `GeneratorState.context`."""

    order: int
    context: int
    consumed: int = 0
    variant: Variant = Variant.PLAIN

    @classmethod
    def start(cls, v, variant: Variant = Variant.PLAIN) -> "TransformState":
        vb = as_bit_array(v)
        if vb.size < 1:
            raise ValueError("initial word must contain at least one bit")
        return cls(vb.size, context_to_int(vb), 0, variant)


def transform_chunk(state: TransformState, x) -> BitSequence:
    """Convert one chunk, carrying the output window across calls."""
    v = np.array(int_to_context(state.context, state.order), dtype=np.uint8)
    y = transform(x, v, state.variant)
    n = len(y)
    if n:
        tail = np.concatenate([v, y.array])[-state.order:]
        state.context = context_to_int(tail)
    state.consumed += n
    return y
