import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twofaced.errors import CapacityError
from twofaced._reference import cond_prob_recursive
from twofaced.kernels import (KernelSpec, Variant, as_context, cond_prob,
                              context_to_int, int_to_context, kernel_table)

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
    kernel_table(KernelSpec(Variant.PLAIN, 21, 0.3), cap=21)


def test_kernel_table_csv_round_trip():
    spec = KernelSpec(Variant.BAR, 2, 0.1)
    table = kernel_table(spec)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "context,p0,p1"
    assert len(lines) == 5
    contexts = [line.split(",")[0] for line in lines[1:]]
    assert contexts == ["00", "01", "10", "11"]  # lexicographic
    for line in lines[1:]:
        ctx, p0, p1 = line.split(",")
        assert float(p0) == table.row(ctx)[0]  # 17 digits round-trip exactly
        assert float(p1) == table.row(ctx)[1]


def test_context_int_round_trip():
    assert context_to_int((1, 0, 1)) == 0b101
    assert int_to_context(0b101, 3) == (1, 0, 1)
    assert as_context("101", 3) == (1, 0, 1)
    with pytest.raises(ValueError):
        as_context("102", 3)


def test_kernel_spec_accepts_integral_orders():
    spec = KernelSpec(Variant.PLAIN, np.int64(8), 0.2)
    assert spec.order == 8 and type(spec.order) is int
    assert spec == KernelSpec(Variant.PLAIN, 8, 0.2)
    for bad in (8.0, "8", np.float64(8.0)):
        with pytest.raises(ValueError):
            KernelSpec(Variant.PLAIN, bad, 0.2)


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
