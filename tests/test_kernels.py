import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import StateDistribution, cond_prob_recursive
from twofaced.combine import ComponentSpec, CutSequence, TwiceTwoFacedConfig
from twofaced.errors import CapacityError
from twofaced.expander import ExpanderConfig
from twofaced.generator import init_fixed
from twofaced.kernels import (PI_FLOOR, KernelSpec, KernelTable, Variant, as_context,
                              cond_prob, context_to_int, int_to_context, kernel_table)
from twofaced.stats import BlockStats

pis = st.floats(min_value=1e-6, max_value=1.0 - 1e-6,
                allow_nan=False, allow_infinity=False)


def random_case():
    return st.integers(1, 12).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.sampled_from([Variant.PLAIN, Variant.BAR]),
            pis,
            st.lists(st.integers(0, 1), min_size=k, max_size=k),
            st.integers(0, 1)))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(Variant.PLAIN, 0, 0.3)
    with pytest.raises(ValueError):
        KernelSpec(Variant.PLAIN, 2, 0.0)
    with pytest.raises(ValueError):
        KernelSpec(Variant.PLAIN, 2, 1.0)
    KernelSpec(Variant.PLAIN, 2, 0.5)  # the fair-coin kernel is allowed


def test_kernel_spec_pi_bound_is_inclusive():
    # below PI_FLOOR the draws' 2^-53 grid is more than 1.1e-7 of pi off
    for pi in (PI_FLOOR, 1.0 - PI_FLOOR):
        assert KernelSpec(Variant.PLAIN, 2, pi).pi == pi
    for pi in (math.nextafter(PI_FLOOR, 0.0), math.nextafter(1.0 - PI_FLOOR, 1.0),
               2.0 ** -53, float("nan")):
        with pytest.raises(ValueError, match=re.escape("pi must lie in [1e-09, 1 - 1e-09]")):
            KernelSpec(Variant.PLAIN, 2, pi)


def test_base_cases():
    pi = 0.2
    t1 = KernelSpec(Variant.PLAIN, 1, pi)
    b1 = KernelSpec(Variant.BAR, 1, pi)
    assert cond_prob_recursive(t1, 0, "0") == pi
    assert cond_prob_recursive(t1, 0, "1") == 1 - pi
    assert cond_prob_recursive(t1, 1, "0") == 1 - pi
    assert cond_prob_recursive(t1, 1, "1") == pi
    assert cond_prob_recursive(b1, 0, "0") == 1 - pi
    assert cond_prob_recursive(b1, 0, "1") == pi


def test_order_two_table_values():
    pi = 0.37
    t2 = KernelSpec(Variant.PLAIN, 2, pi)
    assert cond_prob_recursive(t2, 0, "00") == pi
    assert cond_prob_recursive(t2, 0, "01") == 1 - pi
    assert cond_prob_recursive(t2, 0, "10") == 1 - pi
    assert cond_prob_recursive(t2, 0, "11") == pi
    # closed form agrees on the same four entries
    for ctx in ("00", "01", "10", "11"):
        assert cond_prob(t2, 0, ctx) == cond_prob_recursive(t2, 0, ctx)


def test_derived_cases_by_recursion():
    pi = 0.2
    t3 = KernelSpec(Variant.PLAIN, 3, pi)
    assert cond_prob(t3, 1, "110") == 1 - pi
    b2 = KernelSpec(Variant.BAR, 2, pi)
    assert cond_prob(b2, 0, "00") == 1 - pi


def test_context_length_mismatch():
    spec = KernelSpec(Variant.PLAIN, 3, 0.2)
    with pytest.raises(ValueError):
        cond_prob(spec, 0, "01")
    with pytest.raises(ValueError):
        cond_prob_recursive(spec, 0, "0101")
    with pytest.raises(ValueError):
        cond_prob(spec, 2, "010")


@given(random_case())
def test_closed_form_equals_recursion_exactly(case):
    k, variant, pi, ctx, bit = case
    spec = KernelSpec(variant, k, pi)
    assert cond_prob(spec, bit, ctx) == cond_prob_recursive(spec, bit, ctx)


@given(random_case())
def test_row_stochastic_exactly(case):
    k, variant, pi, ctx, _ = case
    spec = KernelSpec(variant, k, pi)
    assert cond_prob(spec, 0, ctx) + cond_prob(spec, 1, ctx) == 1.0


@given(random_case())
def test_variant_complementarity(case):
    k, _, pi, ctx, bit = case
    plain = KernelSpec(Variant.PLAIN, k, pi)
    bar = KernelSpec(Variant.BAR, k, pi)
    assert cond_prob(bar, bit, ctx) == cond_prob(plain, 1 - bit, ctx)


@given(st.integers(2, 12).flatmap(
    lambda k: st.tuples(st.just(k),
                        st.lists(st.integers(0, 1), min_size=k - 1, max_size=k - 1))),
    pis, st.integers(0, 1))
def test_column_sums_to_one(case, pi, bit):
    # P(b | 0u') + P(b | 1u') = 1 for every shorter word u'
    k, rest = case
    spec = KernelSpec(Variant.PLAIN, k, pi)
    assert cond_prob(spec, bit, [0] + rest) + cond_prob(spec, bit, [1] + rest) == 1.0


def test_exhaustive_small_orders():
    for k in range(1, 9):
        for variant in Variant:
            spec = KernelSpec(variant, k, 0.3)
            table = kernel_table(spec)
            for u in range(1 << k):
                ctx = int_to_context(u, k)
                p0 = cond_prob_recursive(spec, 0, ctx)
                assert p0 == cond_prob(spec, 0, ctx)
                assert p0 == table.p0[u]
                assert table.p1[u] == cond_prob(spec, 1, ctx)


def test_kernel_table_small():
    t = kernel_table(KernelSpec(Variant.PLAIN, 1, 0.3))
    assert t.p0.tolist() == [0.3, 0.7]
    assert t.p1.tolist() == [0.7, 0.3]
    fair = kernel_table(KernelSpec(Variant.PLAIN, 5, 0.5))
    assert (fair.p0 == 0.5).all() and (fair.p1 == 0.5).all()


def test_kernel_table_cap():
    with pytest.raises(CapacityError):
        kernel_table(KernelSpec(Variant.PLAIN, 21, 0.3))


# sha256 over the p0 then p1 bytes of kernel_table(KernelSpec(variant, k,
# 0.3)) for k = 1, ..., 20; computed with the five-step XOR fold that the
# doubling from pi_letter replaced.
_GOLDEN_TABLES = {
    Variant.PLAIN: "852805ea77fda9c10674e6cea176eae9264f17f7b86926e6f9a7fb8c4aa0bb87",
    Variant.BAR: "9e155cac0f0fb14d5c3949973a05b5e1c932a79bab8b0c2341f003e0c577019d",
}


@pytest.mark.parametrize("variant", list(Variant))
def test_kernel_table_golden_digests(variant):
    h = hashlib.sha256()
    for order in range(1, 21):
        table = kernel_table(KernelSpec(variant, order, 0.3))
        h.update(table.p0.tobytes())
        h.update(table.p1.tobytes())
    assert h.hexdigest() == _GOLDEN_TABLES[variant]


def test_context_int_round_trip():
    assert context_to_int((1, 0, 1)) == 0b101
    assert int_to_context(0b101, 3) == (1, 0, 1)
    assert as_context("101", 3).tolist() == [1, 0, 1]
    with pytest.raises(ValueError):
        as_context("102", 3)


_ORDER_2 = KernelSpec(Variant.PLAIN, 2, 0.2)


@pytest.mark.parametrize("take_word", [
    lambda word: init_fixed(_ORDER_2, word),
    lambda word: StateDistribution.point_mass(2, word),
    lambda word: cond_prob(_ORDER_2, 0, word),
], ids=["init_fixed", "point_mass", "cond_prob"])
@pytest.mark.parametrize("word, message", [
    ("111", "context length 3 does not match order 2"),
    ([1, 2], "bits must be 0 or 1"),
], ids=["wrong_length", "bit_not_0_or_1"])
def test_one_check_for_a_window_word(take_word, word, message):
    # every entry point that takes a k-bit word checks it by `as_context`
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        take_word(word)


def test_kernel_spec_accepts_integral_orders():
    spec = KernelSpec(Variant.PLAIN, np.int64(8), 0.2)
    assert spec.order == 8 and type(spec.order) is int
    assert spec == KernelSpec(Variant.PLAIN, 8, 0.2)
    assert hash(spec) == hash(KernelSpec(Variant.PLAIN, 8, 0.2))
    for bad in (8.0, "8", np.float64(8.0)):
        with pytest.raises(ValueError):
            KernelSpec(Variant.PLAIN, bad, 0.2)


_RECORDS = [
    (KernelSpec, dict(variant=Variant.BAR, order=3, pi=0.2), {}),
    (KernelTable, dict(p0=np.array([0.2, 0.8]), p1=np.array([0.8, 0.2])), {}),
    (BlockStats, dict(block_len=1, counts=np.array([3, 2]), windows=5,
                      max_abs_deviation=0.1, chi_square=0.2, df=1), {}),
    (ExpanderConfig, dict(order=4, target_len=64), dict(precision=62)),
    (CutSequence, dict(cuts=(2, 4)), {}),
    (ComponentSpec, dict(kernel=KernelSpec(Variant.PLAIN, 2, 0.3), seed=5), {}),
    (TwiceTwoFacedConfig, dict(cuts=CutSequence((2,)), components=()), {}),
]


@pytest.mark.parametrize("record, fields, defaults", _RECORDS,
                         ids=[record.__name__ for record, _, _ in _RECORDS])
def test_records_take_keywords_and_refuse_assignment(record, fields, defaults):
    value = record(**fields)
    assert value._asdict() == {**fields, **defaults}
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = None  # no instance dict


def _int_by_definition(bits):
    value = 0
    for b in bits:
        value = 2 * value + b
    return value


@given(st.lists(st.integers(0, 1), max_size=200))
def test_context_to_int_matches_definition(bits):
    value = context_to_int(bits)
    assert value == _int_by_definition(bits)
    assert int_to_context(value, len(bits)) == tuple(bits)


@given(st.integers(0, 200), st.integers(min_value=0, max_value=1 << 260))
def test_int_to_context_matches_definition(k, value):
    ctx = int_to_context(value, k)
    assert ctx == tuple((value >> (k - 1 - j)) & 1 for j in range(k))
    assert all(type(b) is int for b in ctx)


@pytest.mark.parametrize("k", [1 << 18, (1 << 18) - 3])
def test_context_int_round_trip_large_order(k):
    bits = np.random.default_rng(k).integers(0, 2, k, dtype=np.uint8)
    value = context_to_int(bits)
    assert value == int("".join(map(str, bits.tolist())), 2)
    assert int_to_context(value, k) == tuple(int(c) for c in format(value, f"0{k}b"))


def test_context_to_int_input_types():
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1]
    expected = 0b101100101
    for word in (tuple(bits), bits, bytearray(bits), np.array(bits, dtype=np.uint8),
                 "101100101"):
        assert context_to_int(word) == expected
    assert context_to_int(()) == 0


def test_int_to_context_masks_to_order():
    assert int_to_context(0b11010, 3) == (0, 1, 0)
    assert int_to_context((1 << 300) | 0b101, 3) == (1, 0, 1)
    assert int_to_context(1 << 8, 8) == (0,) * 8
    assert int_to_context(7, 0) == ()
