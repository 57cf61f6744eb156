import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import occurrence_count, window_counts
from twofaced.bitseq import BitSequence
from twofaced.errors import CapacityError
from twofaced.generator import generate, init_uniform
from twofaced.kernels import KernelSpec, Variant
from twofaced.sources import CounterBitSource, UniformRealSource
from twofaced.stats import (BLOCK_LEN_CAP, _gammaincc, analyze,
                            block_frequencies, chi_square_pvalue,
                            empirical_conditional_entropy, report_csv,
                            report_text)

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=400)


# ---- independent oracle for the regularized upper incomplete gamma ----

def _q_gamma_oracle(a, x):
    if x <= 0.0:
        return 1.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        # series for the lower function
        term = 1.0 / a
        total = term
        ap = a
        for _ in range(10 ** 4):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return 1.0 - total * math.exp(-x + a * math.log(x) - lg)
    # Lentz continued fraction for the upper function
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10 ** 4):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x + a * math.log(x) - lg) * h


def test_occurrence_count_examples():
    assert occurrence_count("0101", "01") == 2
    assert occurrence_count("1111", "11") == 3
    assert occurrence_count("100101", "100101") == 1


def test_occurrence_count_errors():
    with pytest.raises(ValueError):
        occurrence_count("0101", "")
    with pytest.raises(ValueError):
        occurrence_count("01", "0101")


def _brute_force_count(seq, word):
    m = len(word)
    return sum(seq[i:i + m] == word for i in range(len(seq) - m + 1))


@pytest.mark.parametrize("m", [60, 61, 64, 200])
def test_occurrence_count_long_patterns_match_brute_force(m):
    periodic = [1, 1, 0] * 400  # every third window of any length is a hit
    rand = BitSequence(CounterBitSource(m).bits(1500)).array.tolist()
    for seq in (periodic, rand):
        for start in (0, 1, 700):
            word = seq[start:start + m]
            want = _brute_force_count(seq, word)
            assert want >= 1
            assert occurrence_count(seq, word) == want
    assert occurrence_count(periodic, periodic[:m]) == (len(periodic) - m) // 3 + 1
    miss = rand[:m - 1] + [1 - rand[m - 1]]
    assert occurrence_count(rand, miss) == _brute_force_count(rand, miss)


def _occurrence_digest():
    # computed while counting forked at m = 60 between shifted windows and
    # text search; the lengths cover both sides of the fork.  Hits are
    # words read off the stream, misses the same words with the last bit
    # flipped.
    seq = BitSequence(CounterBitSource(31).bits(10 ** 5)).array
    h = hashlib.sha256()
    for m in (1, 2, 9, 16, 24, 59, 60, 61, 200):
        for start in (0, 777, 54321, 10 ** 5 - m):
            hit = seq[start:start + m].copy()
            miss = hit.copy()
            miss[-1] ^= 1
            h.update(repr((m, start, occurrence_count(seq, hit),
                           occurrence_count(seq, miss))).encode())
    return h.hexdigest()


def test_occurrence_count_golden_digest():
    assert _occurrence_digest() == (
        "692709d7b02580e1ac7cdb71c8b2529a8fd865022d6c01ab84033f241eef181e")


@given(bit_lists, st.integers(1, 6))
def test_counts_partition_windows(seq, m):
    if m > len(seq):
        m = len(seq)
    counts = [occurrence_count(seq, [(u >> (m - 1 - j)) & 1 for j in range(m)])
              for u in range(1 << m)]
    assert sum(counts) == len(seq) - m + 1
    with warnings.catch_warnings():  # short streams have low expected counts
        warnings.simplefilter("ignore")
        table = block_frequencies(seq, m).counts
    assert counts == table.tolist()


def test_block_frequencies_balanced():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stats = block_frequencies("00011011", 1)
    assert stats.windows == 8
    assert (stats.counts / stats.windows).tolist() == [0.5, 0.5]
    assert stats.max_abs_deviation == 0.0
    assert stats.chi_square == 0.0
    assert stats.df == 1


def test_block_frequencies_caps_and_errors():
    seq = BitSequence(np.zeros(100, np.uint8))
    with pytest.raises(CapacityError):
        block_frequencies(seq, 25)
    with pytest.raises(ValueError, match=r"block range must satisfy 1 <= min <= max"):
        block_frequencies(seq, 0)
    with pytest.raises(ValueError):
        block_frequencies(BitSequence("01"), 3)


def test_low_expected_count_warns():
    with pytest.warns(UserWarning, match="chi-square"):
        block_frequencies(BitSequence("0110101101"), 4)


@given(bit_lists, st.integers(1, 5))
@settings(max_examples=40)
def test_counts_sum_and_marginalization(seq, m):
    if m + 1 > len(seq):
        m = max(1, len(seq) - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        small = block_frequencies(seq, m)
        big = block_frequencies(seq, m + 1) if len(seq) > m else None
    assert small.counts.sum() == small.windows
    if big is not None:
        merged = big.counts.reshape(-1, 2).sum(axis=1)
        # merging the last letter loses at most one boundary window
        assert np.abs(merged / big.windows - small.counts / small.windows).max() <= m / len(seq) + 1e-12


def test_two_faced_signature():
    # accepts uniformity through the order, rejects hard just past it
    for k, pi, seed in ((8, 0.2, 9), (5, 0.1, 12)):
        kern = KernelSpec(Variant.PLAIN, k, pi)
        src = CounterBitSource(seed)
        seq = generate(init_uniform(kern, src), 10 ** 6, UniformRealSource(src))
        for m in range(1, k + 1):
            assert block_frequencies(seq, m).p_value > 1e-4
        assert block_frequencies(seq, k + 1).p_value < 1e-6


def test_block_deviation_pinned_run():
    kern = KernelSpec(Variant.PLAIN, 8, 0.2)
    src = CounterBitSource(9)
    seq = generate(init_uniform(kern, src), 10 ** 6, UniformRealSource(src))
    stats = block_frequencies(seq, 8)
    assert stats.max_abs_deviation <= 0.10 * 2.0 ** -8
    beyond = block_frequencies(seq, 9)
    assert beyond.chi_square > 100 * beyond.df  # far past any critical value


def test_entropy_alternating_sequence():
    seq = BitSequence("01" * 5000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert empirical_conditional_entropy(seq, 2) == pytest.approx(0.0, abs=1e-12)


def test_entropy_estimates_on_chain():
    kern = KernelSpec(Variant.PLAIN, 4, 0.1)
    src = CounterBitSource(6)
    seq = generate(init_uniform(kern, src), 10 ** 6, UniformRealSource(src))
    assert empirical_conditional_entropy(seq, 4) == pytest.approx(1.0, abs=0.01)
    assert empirical_conditional_entropy(seq, 5) == pytest.approx(0.469, abs=0.01)


def test_entropy_golden_digest():
    # repr of every estimate to m = 16 on one order-8 stream; most
    # 15-bit contexts are missing there, which the estimate warns about
    kern = KernelSpec(Variant.PLAIN, 8, 0.2)
    src = CounterBitSource(9)
    seq = generate(init_uniform(kern, src), 10 ** 5, UniformRealSource(src))
    h = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for m in range(1, 17):
            h.update(repr(empirical_conditional_entropy(seq, m)).encode())
    assert h.hexdigest() == (
        "4fd5991b8d402779891a6acb6bf5d5cf5172e5dc47a5e18a561211d34c54f180")


def test_entropy_missing_contexts_warn():
    with pytest.warns(UserWarning, match="contexts"):
        empirical_conditional_entropy(BitSequence("00000000"), 3)


def test_entropy_caps():
    with pytest.raises(CapacityError):
        empirical_conditional_entropy(BitSequence(np.zeros(100, np.uint8)), 25)
    with pytest.raises(ValueError):
        empirical_conditional_entropy(BitSequence(np.zeros(100, np.uint8)), 0)


def test_entropy_truly_random_sanity():
    seq = BitSequence(CounterBitSource(271828).bits(10 ** 7))
    for m in range(1, 11):
        assert empirical_conditional_entropy(seq, m) == pytest.approx(1.0, abs=0.01)


def test_chi_square_pvalue_reference_points():
    assert chi_square_pvalue(0.0, 5) == 1.0
    assert chi_square_pvalue(3.841, 1) == pytest.approx(0.05, abs=1e-3)
    assert chi_square_pvalue(255.0, 255) == pytest.approx(0.49, abs=0.02)
    with pytest.raises(ValueError):
        chi_square_pvalue(-1.0, 3)
    with pytest.raises(ValueError):
        chi_square_pvalue(1.0, 0)


def test_chi_square_pvalue_matches_series_oracle():
    for df in (1, 2, 7, 63, 255, 1023, 2 ** 20):
        for ratio in (0.1, 0.5, 1.0, 1.5, 3.0):
            stat = df * ratio
            got = chi_square_pvalue(stat, df)
            want = _q_gamma_oracle(df / 2.0, stat / 2.0)
            assert got == pytest.approx(want, abs=1e-8)


# (df, statistic, p-value) with the p-value from scipy.special.gammaincc
# (scipy 1.17.1), pinned as literals so the test needs no scipy.  For each
# df: 0, 0.01 df, df, df -/+ 4 sqrt(2 df) (the minus side only where it
# is nonnegative), and statistics with p near 1e-10, 1e-100 and 1e-300.
_SCIPY_PVALUES = [
    (1, 0.0, 1.0),
    (1, 0.01, 0.920344325445942),
    (1, 1.0, 0.31731050786291115),
    (1, 6.65685424949, 0.00987751320556392),
    (1, 41.8215, 9.999776833432998e-11),
    (1, 453.943, 1.0000412104365785e-100),
    (1, 1373.87, 1.0013174344577157e-300),
    (3, 0.0, 1.0),
    (3, 0.03, 0.9986303948188087),
    (3, 3.0, 0.3916251762710877),
    (3, 12.7979589711, 0.00509454105172364),
    (3, 49.5422, 9.999783918388035e-11),
    (3, 466.214, 1.0001784197112438e-100),
    (3, 1388.34, 9.983893859787183e-301),
    (255, 0.0, 1.0),
    (255, 2.55, 1.0),
    (255, 255.0, 0.48822252177040637),
    (255, 164.667281675, 0.999997590796753),
    (255, 345.332718325, 0.00013897772943257576),
    (255, 425.923, 1.0000560432268965e-10),
    (255, 1072.89, 9.992835882105841e-101),
    (255, 2172.08, 1.000966730047285e-300),
    (65535, 0.0, 1.0),
    (65535, 655.35, 1.0),
    (65535, 65535.0, 0.4992653724170944),
    (65535, 64086.8563607, 0.9999718737907741),
    (65535, 66983.1436393, 3.552393619599658e-05),
    (65535, 67864.4, 1.0001739112407287e-10),
    (65535, 73540.7, 9.976500476501348e-101),
    (65535, 79876.8, 1.0008039347084139e-300),
    (1048575, 0.0, 1.0),
    (1048575, 10485.75, 1.0),
    (1048575, 1048575.0, 0.49981634444708567),
    (1048575, 1042782.38401, 0.9999692433223869),
    (1048575, 1054367.61599, 3.260503553652661e-05),
    (1048575, 1057810.0, 1.0158962689134995e-10),
    (1048575, 1079680.0, 1.0594667150360583e-100),
    (1048575, 1103140.0, 1.0792205339255512e-300),
    (16777215, 0.0, 1.0),
    (16777215, 167772.15, 1.0),
    (16777215, 16777215.0, 0.49995408613275266),
    (16777215, 16754044.5257, 0.9999685591932377),
    (16777215, 16800385.4743, 3.1902879468084e-05),
    (16777215, 16814100.0, 9.889883484912308e-11),
    (16777215, 16900700.0, 1.1801112005492252e-100),
    (16777215, 16992700.0, 1.2096319141489629e-300),
]


def test_chi_square_pvalue_matches_pinned_scipy_values():
    for df, stat, want in _SCIPY_PVALUES:
        got = chi_square_pvalue(stat, df)
        assert abs(got - want) <= 1e-8 * want, (df, stat, got, want)


def test_chi_square_pvalue_converges_at_block_len_cap():
    # At m = 24 and chi-square = df the series needs ~25,000 terms; the
    # 10^4-term oracle above stops short there (0.50023 for 0.49995).
    df = (1 << BLOCK_LEN_CAP) - 1
    for stat, want in ((float(df), 0.49995408613275266),    # series, x = a
                       (df + 1.5, 0.49985077993831345),     # series, x = a + 3/4
                       (df + 2.5, 0.4997819091505728)):     # fraction, x = a + 5/4
        got = chi_square_pvalue(stat, df)
        assert abs(got - want) <= 1e-8 * want, (stat, got, want)


def test_chi_square_pvalue_nan_raises():
    with pytest.raises(ValueError):
        chi_square_pvalue(math.nan, 3)


def test_chi_square_pvalue_infinite_statistic_is_zero():
    assert chi_square_pvalue(math.inf, 3) == 0.0
    assert chi_square_pvalue(math.inf, (1 << BLOCK_LEN_CAP) - 1) == 0.0


def test_gammaincc_raises_instead_of_looping_without_convergence():
    with pytest.raises(ArithmeticError):
        _gammaincc(2.5, math.nan)


def test_reports():
    seq = BitSequence(CounterBitSource(4).bits(5000))
    stats = analyze(seq, 4)
    text = report_text(stats)
    assert len(text.strip().splitlines()) == 4
    assert "block_len=1" in text and ("ok" in text or "REJECT" in text)
    csv = report_csv(stats)
    lines = csv.strip().splitlines()
    assert lines[0] == "block_len,windows,max_abs_deviation,chi_square,df,p_value"
    first = lines[1].split(",")
    assert int(first[0]) == 1 and int(first[1]) == 5000
    float(first[2]), float(first[3]), float(first[5])  # parsable


def test_analyze_range_validation():
    with pytest.raises(ValueError):
        analyze(BitSequence(np.zeros(10, np.uint8)), 0)
    with pytest.raises(ValueError):
        analyze(BitSequence(np.zeros(10, np.uint8)), 2, 3)


# ---- the one-histogram fold against the per-length counter ----

def _assert_matches_oracle(stats, bits, m):
    counts = window_counts(bits, m)
    windows = len(bits) - m + 1
    expected = windows / (1 << m)
    assert stats.block_len == m and stats.df == (1 << m) - 1
    assert stats.windows == windows
    assert stats.counts.dtype == np.int64 and not stats.counts.flags.writeable
    assert np.array_equal(stats.counts, counts)
    assert stats.max_abs_deviation == float(np.abs(counts / windows - 2.0 ** -m).max())
    assert stats.chi_square == float(((counts - expected) ** 2 / expected).sum())


def _entropy_from_counts(counts, windows):
    # H = -sum over m-words u of c(u) log2(c(u) / c(context of u)) / windows
    total = 0.0
    for u, c in enumerate(counts.tolist()):
        if c:
            total -= c * math.log2(c / (counts[u & ~1] + counts[u | 1]))
    return total / windows


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300), st.data())
@example([1], None)
@example([0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1], None)
@settings(max_examples=80, deadline=None)
def test_analyze_matches_per_length_counter(bits, data):
    n = len(bits)
    if data is None:  # one window: max_block == length
        hi, lo = n, 1
    else:
        hi = data.draw(st.integers(1, min(n, 18)), label="max_block")
        lo = data.draw(st.integers(1, hi), label="min_block")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = analyze(bits, hi, lo)
        assert [s.block_len for s in results] == list(range(lo, hi + 1))
        for s in results:
            _assert_matches_oracle(s, bits, s.block_len)
        m = hi if data is None else data.draw(st.integers(lo, hi), label="m")
        single = block_frequencies(bits, m)
        _assert_matches_oracle(single, bits, m)
        entropy = empirical_conditional_entropy(bits, m)
    want = _entropy_from_counts(window_counts(bits, m), n - m + 1)
    assert entropy == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_analyze_matches_per_length_counter_at_block_len_cap():
    # The top of the range: fold from 2^24 cells, one window and many.
    for n in (BLOCK_LEN_CAP, 300):
        bits = BitSequence(CounterBitSource(n).bits(n)).array
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = analyze(bits, BLOCK_LEN_CAP, BLOCK_LEN_CAP - 2)
        for s in results:
            _assert_matches_oracle(s, bits, s.block_len)
        del results


def test_analyze_matches_per_length_counter_on_long_stream():
    # m = 17 needs 32-bit windows; 400,009 bits span four 2^17-window chunks
    bits = BitSequence(CounterBitSource(17).bits(400_009)).array
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = analyze(bits, 17)
    for s in results:
        _assert_matches_oracle(s, bits, s.block_len)


def _warning_texts(caught):
    return [str(w.message) for w in caught if issubclass(w.category, UserWarning)]


def _low_count_texts(n, ms):
    return [f"block length {m}: expected count per cell is {(n - m + 1) / (1 << m):.2f} "
            "(< 5); the chi-square approximation is unreliable" for m in ms]


@pytest.mark.parametrize("n, max_block, min_block, error, message", [
    (100, 25, 1, CapacityError, "block length 25 exceeds table cap 24"),
    (4, 6, 1, ValueError, "block length 5 exceeds sequence length 4"),
    (10, 25, 3, ValueError, "block length 11 exceeds sequence length 10"),
    (10, 30, 26, CapacityError, "block length 26 exceeds table cap 24"),
    (30, 26, 25, CapacityError, "block length 25 exceeds table cap 24"),
])
def test_analyze_fails_at_first_bad_length(n, max_block, min_block, error, message):
    # The first failing length in ascending order is named, after the
    # low-count warning of every length below it, once each, in order.
    bits = BitSequence(CounterBitSource(3).bits(n))
    first_bad = int(message.split()[2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error) as info:
            analyze(bits, max_block, min_block)
    assert type(info.value) is error and str(info.value) == message
    below = [m for m in range(min_block, first_bad) if (n - m + 1) / (1 << m) < 5.0]
    assert _warning_texts(caught) == _low_count_texts(n, below)


def test_analyze_low_count_warning_once_per_length_ascending():
    bits = BitSequence(CounterBitSource(8).bits(200))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        analyze(bits, 12, 2)
    # expected count (201 - m) / 2^m drops below 5 from m = 6
    assert _warning_texts(caught) == _low_count_texts(200, range(6, 13))
