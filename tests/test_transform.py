import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import (StateDistribution, exact_block_distribution,
                       m_select_definitional)
from twofaced.bitseq import BitSequence
from twofaced.kernels import KernelSpec, Variant, int_to_context
from twofaced.sources import CounterBitSource
from twofaced.transform import inverse_transform, transform

bit_lists = st.lists(st.integers(0, 1), max_size=128)


def _slow_transform(x, v, variant=Variant.PLAIN):
    # per-bit oracle using the definitional selector
    k = len(v)
    y = list(v)
    for xi in x:
        ctx = y[-k:]
        y.append(m_select_definitional(k, xi, ctx, variant))
    return y[k:]


def test_reference_vector():
    assert transform("10010", "01") == BitSequence("01110")


def test_m_select_examples():
    # the per-bit selector M is a one-bit conversion
    assert transform("1", "01") == BitSequence("0")
    assert transform("0", "10") == BitSequence("1")
    assert transform("0", "0") == BitSequence("0")


def test_m_select_errors():
    with pytest.raises(ValueError):
        m_select_definitional(2, 0, "011")
    with pytest.raises(ValueError):
        m_select_definitional(2, 2, "01")
    with pytest.raises(ValueError):
        transform([2], "01")


def test_selector_definitional_equivalence_exhaustive():
    for k in range(1, 13):
        for variant in Variant:
            for u in range(1 << k):
                ctx = int_to_context(u, k)
                for x in (0, 1):
                    assert transform([x], ctx, variant)[0] == \
                        m_select_definitional(k, x, ctx, variant)


def test_all_zero_input_gives_parity_recurrence():
    k, n = 3, 40
    v = [1, 0, 1]
    y = list(transform([0] * n, v))
    full = v + y
    for i in range(k, len(full)):
        assert full[i] == full[i - 1] ^ full[i - 2] ^ full[i - 3]


@given(st.integers(1, 8).flatmap(
    lambda k: st.tuples(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                        bit_lists)),
    st.sampled_from([Variant.PLAIN, Variant.BAR]))
def test_vectorized_matches_per_bit_oracle(case, variant):
    v, x = case
    assert list(transform(x, v, variant)) == _slow_transform(x, v, variant)


@given(st.integers(1, 8).flatmap(
    lambda k: st.tuples(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                        bit_lists)),
    st.sampled_from([Variant.PLAIN, Variant.BAR]))
def test_round_trip(case, variant):
    v, x = case
    y = transform(x, v, variant)
    assert inverse_transform(y, v, variant) == BitSequence(x)


def test_exhaustive_small_inputs_match_definitional_path():
    # every (input, initial word) pair at small sizes, both variants
    for k in (1, 2, 3):
        for variant in Variant:
            for v in itertools.product((0, 1), repeat=k):
                for n in (0, 1, 5, 7):
                    for x in itertools.product((0, 1), repeat=n):
                        assert list(transform(x, v, variant)) == \
                            _slow_transform(x, v, variant)


# sha256 of the packed transform and inverse_transform of 5,000 counter
# bits (seed 9) under initial words of length 1, 7 and 16, computed before
# the variant offset moved into `kernels`.
_CONVERSION_DIGESTS = {
    ("plain", "transform"): "3f9c246075b46e1e4e3ce566cae22eee88372d7a3535aaf0fd3b7bc4186545d1",
    ("plain", "inverse"): "2250260e4595c8588bf2b6f5df2f02aab18261f1b273c048aee923a5c88caba0",
    ("bar", "transform"): "e24e38dd3acd5cdd4d7b8a5f58a95d8fb40d55b7539a705486fb0ec61e2d5203",
    ("bar", "inverse"): "3d92a6435bc720329b54dc71c717ac2daab791e71e2c4fd18fe2e7e92f4d1000",
}


def test_conversion_golden_digests():
    x = BitSequence(CounterBitSource(9).bits(5000))
    words = ("1", "1011001", "0110100110010111")
    got = {}
    for variant, op in _CONVERSION_DIGESTS:
        fn = transform if op == "transform" else inverse_transform
        h = hashlib.sha256()
        for v in words:
            h.update(fn(x, v, Variant(variant)).to_packed())
        got[variant, op] = h.hexdigest()
    assert got == _CONVERSION_DIGESTS


def test_conversion_golden_digest_at_edge_lengths():
    # computed with the four-array prefix-XOR scan: n = 0, 1, k and k + 1
    # (empty, one bit, one row of k + 1 strides short of a bit, one full
    # row) at small and large k, and 10^5 bits under a 2^17-bit word
    h = hashlib.sha256()
    cases = [(k, n) for k in (1, 7, 1000, 1 << 17) for n in (0, 1, k, k + 1)]
    for k, n in cases + [(1 << 17, 10 ** 5)]:
        v = BitSequence(CounterBitSource(k).bits(k))
        x = BitSequence(CounterBitSource(n + 5).bits(n))
        for variant in Variant:
            for fn in (transform, inverse_transform):
                y = fn(x, v, variant)
                h.update(repr((k, n, len(y))).encode() + y.to_packed())
    assert h.hexdigest() == (
        "c7106319ea1bc797bf08179c9f72d5588eb0026bcc416866f7181a24e8a0276f")


def test_determinism():
    a = transform("110100111101", "0110")
    b = transform("110100111101", "0110")
    assert a == b


def test_length_preserved_and_empty():
    assert len(transform([], "01")) == 0
    assert len(transform([1] * 17, "01")) == 17
    with pytest.raises(ValueError):
        transform("101", [])


@given(st.integers(1, 6).flatmap(
    lambda k: st.tuples(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                        st.lists(st.integers(0, 1), min_size=0, max_size=64),
                        st.integers(1, 7))),
    st.sampled_from([Variant.PLAIN, Variant.BAR]),
    st.sampled_from([transform, inverse_transform]))
def test_chunked_equals_whole(case, variant, convert):
    # The window carried between chunks is the last k output bits of a
    # transform, or the last k input bits of an inverse_transform.
    v, x, chunk = case
    whole = convert(x, v, variant)
    window = np.array(v, dtype=np.uint8)
    parts = []
    for i in range(0, len(x), chunk):
        part = convert(x[i:i + chunk], window, variant)
        y_part = part if convert is transform else x[i:i + chunk]
        window = np.concatenate([window, np.array(list(y_part), np.uint8)])[-len(v):]
        parts.append(part.array)
    got = np.concatenate([np.zeros(0, np.uint8), *parts])
    assert BitSequence(got) == whole


def test_distribution_transport_exact():
    # Weighted enumeration over every input word and initial word: the
    # output's k-block law is uniform at every offset.
    for k, n, pi in ((1, 7, 0.2), (2, 8, 0.3), (3, 9, 0.2)):
        for variant in Variant:
            laws = [np.zeros(1 << k) for _ in range(n - k + 1)]
            for v in itertools.product((0, 1), repeat=k):
                for x in itertools.product((0, 1), repeat=n):
                    zeros = x.count(0)
                    weight = (pi ** zeros) * ((1 - pi) ** (n - zeros)) * 2.0 ** -k
                    y = list(transform(x, v, variant))
                    for off in range(n - k + 1):
                        word = 0
                        for b in y[off:off + k]:
                            word = (word << 1) | b
                        laws[off][word] += weight
            for law in laws:
                assert np.abs(law - 2.0 ** -k).max() <= 1e-12


def test_transport_matches_chain_law_beyond_order():
    # Enumerated conversion output law equals the exact chain law, also
    # for blocks longer than the order, where both are non-uniform.
    k, n, pi = 2, 6, 0.3
    kern = KernelSpec(Variant.PLAIN, k, pi)
    law = np.zeros(1 << n)
    for v in itertools.product((0, 1), repeat=k):
        for x in itertools.product((0, 1), repeat=n):
            zeros = x.count(0)
            weight = (pi ** zeros) * ((1 - pi) ** (n - zeros)) * 2.0 ** -k
            word = 0
            for b in transform(x, v):
                word = (word << 1) | b
            law[word] += weight
    exact = exact_block_distribution(kern, StateDistribution.uniform(k), 0, n)
    assert np.abs(law - exact).max() <= 1e-12
