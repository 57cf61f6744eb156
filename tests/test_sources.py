import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import ReplayRealSource
from twofaced.bitseq import BitSequence
from twofaced.errors import SourceExhaustedError
from twofaced.sources import (CounterBitSource, OSBitSource, ReplayBitSource,
                              UniformRealSource, mix64)
from twofaced.stats import block_frequencies

_M64 = (1 << 64) - 1


def _replay(bits) -> ReplayBitSource:
    seq = BitSequence(bits)
    return ReplayBitSource(seq.to_packed(), len(seq))


def _mix64_oracle(z):
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _stream_oracle(seed, n):
    out = []
    i = 0
    while len(out) < n:
        block = _mix64_oracle((seed + (i + 1) * 0x9E3779B97F4A7C15) & _M64)
        out.extend((block >> j) & 1 for j in range(64))
        i += 1
    return out[:n]


def test_counter_source_golden_prefix():
    assert CounterBitSource(0).bits(8).tolist() == [1, 1, 1, 1, 0, 1, 0, 1]


@given(st.integers(0, _M64), st.integers(0, 300))
def test_counter_source_matches_scalar_oracle(seed, n):
    assert CounterBitSource(seed).bits(n).tolist() == _stream_oracle(seed, n)


def test_mix64_matches_oracle():
    for z in (0, 1, 0xDEADBEEF, _M64):
        assert mix64(z) == _mix64_oracle(z)


@given(st.integers(0, _M64), st.lists(st.integers(0, 80), min_size=1, max_size=6))
def test_chunked_reads_equal_one_read(seed, chunks):
    total = sum(chunks)
    split = CounterBitSource(seed)
    pieces = [split.bits(c) for c in chunks]
    whole = CounterBitSource(seed).bits(total)
    assert np.array_equal(np.concatenate(pieces) if pieces else whole, whole)


def test_equal_seeds_equal_streams():
    assert np.array_equal(CounterBitSource(99).bits(500), CounterBitSource(99).bits(500))


@pytest.mark.parametrize("call", [
    lambda n: CounterBitSource(0).bits(n),
    lambda n: OSBitSource().bits(n),
    lambda n: _replay("1010").bits(n),
    lambda n: UniformRealSource.from_seed(0).reals(n),
    lambda n: UniformRealSource.from_seed(0).at_least(n, (0.5,)),
], ids=["counter", "os", "replay", "reals", "at_least"])
def test_negative_count_rejected(call):
    with pytest.raises(ValueError, match="count must be nonnegative"):
        call(-1)
    assert np.size(call(0)) == 0


def test_os_source_shape():
    out = OSBitSource().bits(37)
    assert out.size == 37 and set(out.tolist()) <= {0, 1}


def test_counter_seed_must_be_an_integer():
    # no silent truncation: 1.9 is not seed 1, nor "7" seed 7
    for bad in (1.9, "7", 2.5, None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            CounterBitSource(bad)
    src = CounterBitSource(np.uint64(5))
    assert type(src.seed) is int and src.seed == 5
    assert np.array_equal(src.bits(200), CounterBitSource(5).bits(200))


def test_replay_source_exhaustion():
    src = _replay("1010")
    assert src.bits(3).tolist() == [1, 0, 1]
    with pytest.raises(SourceExhaustedError):
        src.bits(2)


def test_replay_source_holds_its_bits_packed():
    bits = CounterBitSource(9).bits(10 ** 6)
    data = bytearray(BitSequence(bits).to_packed())  # copied, and so traced
    tracemalloc.start()
    try:
        src = ReplayBitSource(data, bits.size)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 0.15 * bits.size
    assert np.array_equal(src.bits(bits.size), bits)


def test_file_source_round_trip(tmp_path):
    # the --entropy-file path: packed bytes on disk replayed as they are
    seq = BitSequence("10110011" * 3)
    path = tmp_path / "entropy.bin"
    path.write_bytes(seq.to_packed())
    src = ReplayBitSource(path.read_bytes())
    assert BitSequence(src.bits(24)) == seq
    with pytest.raises(SourceExhaustedError):
        src.bits(1)


def test_replay_source_from_packed_reads_bytes_first_bit_lowest():
    # unaligned reads of the bytes as they are match the unpacked read of
    # them, and a request past the end consumes nothing
    data = BitSequence(CounterBitSource(4).bits(1001)).to_packed()
    src = ReplayBitSource(data)
    want = BitSequence.from_packed(data).array
    assert src.remaining == want.size == 1008
    for start, stop in ((0, 3), (3, 67), (67, 74), (74, 1002)):
        assert np.array_equal(src.bits(stop - start), want[start:stop])
    with pytest.raises(SourceExhaustedError, match="requested 8 bits but only 6 remain"):
        src.bits(8)
    assert np.array_equal(src.bits(6), want[1002:])


@pytest.mark.parametrize("bits", [np.array([0, 1, 1, 0], np.uint8), "0110", [0, 1, 1, 0]],
                         ids=["uint8-array", "str", "list"])
def test_replay_source_takes_only_packed_bytes(bits):
    # a 0/1 array read as packed bytes would replay 8 times as many bits
    with pytest.raises(TypeError, match="must be packed bytes"):
        ReplayBitSource(bits)


def test_replay_source_bit_count_is_checked_as_from_packed():
    data = BitSequence(CounterBitSource(6).bits(24)).to_packed()
    for n, message in ((-1, "bit count must be nonnegative, got -1"),
                       (25, "3 bytes hold fewer than 25 bits")):
        for build in (ReplayBitSource, BitSequence.from_packed):
            with pytest.raises(ValueError, match=message):
                build(data, n)
    src = ReplayBitSource(data, 17)  # the last byte holds one bit of the 17
    assert src.remaining == 17
    assert BitSequence(src.bits(17)) == BitSequence.from_packed(data, 17)
    with pytest.raises(SourceExhaustedError, match="requested 1 bits but only 0 remain"):
        src.bits(1)


def test_source_bits_wrap_as_bitsequence():
    out = BitSequence(CounterBitSource(1).bits(10))
    assert isinstance(out, BitSequence) and len(out) == 10
    assert len(BitSequence(CounterBitSource(1).bits(0))) == 0


def test_uniform_reals_construction():
    # 53 bits per draw, first bit most significant
    bits = CounterBitSource(5).bits(53 * 4)
    manual = [sum(int(b) * 2.0 ** -(j + 1) for j, b in enumerate(bits[53 * i:53 * (i + 1)]))
              for i in range(4)]
    reals = UniformRealSource.from_seed(5).reals(4)
    assert reals.tolist() == manual
    assert (reals >= 0).all() and (reals < 1).all()


def test_uniform_reals_next_matches_batch():
    a = UniformRealSource.from_seed(11)
    b = UniformRealSource.from_seed(11)
    assert [a.reals(1).item() for _ in range(5)] == b.reals(5).tolist()


def test_replay_real_source():
    src = ReplayRealSource([0.1, 0.9])
    assert src.reals(1).item() == 0.1
    assert src.reals(1).item() == 0.9
    with pytest.raises(SourceExhaustedError):
        src.reals(1)


def test_counter_source_passes_own_battery():
    # harness sanity: the deterministic source looks uniform to the suite
    bits = BitSequence(CounterBitSource(314159).bits(10 ** 6))
    for m in range(1, 11):
        assert block_frequencies(bits, m).p_value > 1e-4


def _weighted_sum_reals(bits, n):
    # The documented construction, term by term: sum_j b_j * 2^-(j+1).
    weights = 2.0 ** -(np.arange(53, dtype=np.float64) + 1.0)
    return bits[:53 * n].reshape(n, 53).astype(np.float64) @ weights


@pytest.mark.parametrize("n", [0, 1, 7, 100003])
@pytest.mark.parametrize("seed", [0, 9, 1512, _M64])
def test_uniform_reals_equal_weighted_sum(seed, n):
    got = UniformRealSource.from_seed(seed).reals(n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got, _weighted_sum_reals(CounterBitSource(seed).bits(53 * n), n))


def test_uniform_reals_from_replayed_bits_equal_weighted_sum():
    bits = np.concatenate([np.ones(53, np.uint8), np.zeros(53, np.uint8),
                           CounterBitSource(5).bits(53 * 98)])
    got = UniformRealSource(_replay(bits)).reals(100)
    assert np.array_equal(got, _weighted_sum_reals(bits, 100))
    assert got[0] == 1.0 - 2.0 ** -53 and got[1] == 0.0


_THRESHOLDS = (0.2, 0.77, 1e-9, 0.5, 1 - 1e-12, 1 / 3)
_THRESHOLDS += tuple(1 - t for t in _THRESHOLDS)


# 7, 8 and 9 are the edges of the eight-draw period; at 8 the last load
# reads into the spare group.
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 100003])
@pytest.mark.parametrize("seed", [9, 1512, _M64])
def test_at_least_equals_compared_reals(seed, n):
    # every start offset within a word, set by a prior read of skip bits
    for skip in range(64):
        src, ref = CounterBitSource(seed), CounterBitSource(seed)
        src.bits(skip), ref.bits(skip)
        got = UniformRealSource(src).at_least(n, _THRESHOLDS)
        u = UniformRealSource(ref).reals(n)
        for t, decided in zip(_THRESHOLDS, got):
            assert decided.dtype == bool and np.array_equal(decided, u >= t), (skip, t)
        assert np.array_equal(src.bits(64), ref.bits(64))  # advanced by 53n


def test_at_least_from_replayed_bits_and_exhaustion():
    bits = CounterBitSource(5).bits(53 * 1000 + 7)
    for skip in (0, 7):
        src = _replay(bits)
        src.bits(skip)
        got = UniformRealSource(src).at_least(1000, _THRESHOLDS)
        u = UniformRealSource(_replay(bits[skip:])).reals(1000)
        assert all(np.array_equal(d, u >= t) for t, d in zip(_THRESHOLDS, got))
        assert src.remaining == 7 - skip
    src = _replay(bits[:53 * 100 - 1])
    with pytest.raises(SourceExhaustedError, match="requested 5300 bits but only 5299"):
        UniformRealSource(src).at_least(100, (0.5,))
    assert src.remaining == 5299  # nothing consumed


def test_at_least_threshold_edges():
    draws = UniformRealSource(_replay([1] * 53 + [0] * 53))
    assert [d.tolist() for d in draws.at_least(2, (1.0, 1 - 2.0 ** -53, 2.0 ** -60))] == [
        [False, False], [True, False], [True, False]]
    for bad in ((0.0,), (-0.1,), (1.5,), (0.5, float("nan"))):
        with pytest.raises(ValueError):
            UniformRealSource.from_seed(1).at_least(3, bad)


def test_replay_real_source_at_least():
    src = ReplayRealSource([0.1, 0.2, 0.9])
    low, high = src.at_least(3, (0.2, 0.8))
    assert low.tolist() == [False, True, True] and high.tolist() == [False, False, True]


# Calls that grow the kept buffers, shrink them, cross the eight-draw period
# and leave the stream at every kind of offset within a word.
_CALLS = (5, 1000, 3, 8, 4097, 1, 999)


def _draw_calls(src, calls):
    return [src.at_least(n, (0.2, 0.8)) for n in calls]


def test_sources_drawing_in_alternation_equal_each_alone():
    # each source draws in its own buffers: interleaving two changes nothing
    alone = [_draw_calls(UniformRealSource.from_seed(seed), _CALLS) for seed in (9, 1512)]
    a, b = UniformRealSource.from_seed(9), UniformRealSource.from_seed(1512)
    for n, want_a, want_b in zip(_CALLS, *alone):
        for src, want in ((a, want_a), (b, want_b)):
            got = src.at_least(n, (0.2, 0.8))
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), n


def test_returned_arrays_survive_the_next_call():
    src = UniformRealSource.from_seed(9)
    got = src.at_least(1000, (0.2, 0.8))
    want = [d.copy() for d in got]
    _draw_calls(src, _CALLS)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    counter = CounterBitSource(9)
    bits = counter.bits(1000)
    want = bits.copy()
    counter.bits(1000)
    UniformRealSource(counter).at_least(1000, (0.5,))
    assert np.array_equal(bits, want)


def test_replayed_draws_in_calls_equal_one_call():
    bits = CounterBitSource(5).bits(53 * sum(_CALLS) + 3)
    src = _replay(bits)
    chunked = _draw_calls(UniformRealSource(src), _CALLS)
    whole = UniformRealSource(_replay(bits)).at_least(sum(_CALLS), (0.2, 0.8))
    for i in range(2):
        assert np.array_equal(np.concatenate([c[i] for c in chunked]), whole[i])
    assert src.remaining == 3
    with pytest.raises(SourceExhaustedError):
        UniformRealSource(src).at_least(1, (0.5,))
    assert src.remaining == 3  # nothing consumed


# The extra bytes per draw that a source allocates for its bits: only
# os.urandom's 53n / 8, as the counter and replay sources write in place.
@pytest.mark.parametrize("make, extra", [
    (lambda: CounterBitSource(9), 0),
    (lambda: _replay(CounterBitSource(9).bits(53 * 2 * (1 << 15))), 0),
    (OSBitSource, 7)], ids=["counter", "replay", "os"])
def test_second_pass_allocates_only_its_draws(make, extra):
    # the first pass sizes the kept buffers; the second allocates only the
    # two n-bool results, where one pass-sized uint64 temporary takes 8n
    n = 1 << 15
    src = UniformRealSource(make())
    src.at_least(n, (0.2, 0.8))
    tracemalloc.start()
    try:
        src.at_least(n, (0.2, 0.8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n + extra * n + 4096


_CALL = st.tuples(st.sampled_from(["bits", "draws"]), st.integers(0, 700))


@given(st.integers(0, _M64), st.lists(_CALL, min_size=1, max_size=8))
def test_bits_and_draws_read_one_block_path(seed, calls):
    # one counter source through bits and draws in any order, at sizes
    # that cross 64-bit words and grow the kept ramp and draw buffers
    total = sum(53 * n if op == "draws" else n for op, n in calls)
    ref = _replay(CounterBitSource(seed).bits(total))
    src = CounterBitSource(seed)
    draws, ref_draws = UniformRealSource(src), UniformRealSource(ref)
    for op, n in calls:
        if op == "draws":
            got, want = draws.at_least(n, (0.2, 0.8)), ref_draws.at_least(n, (0.2, 0.8))
        else:
            got, want = [src.bits(n)], [ref.bits(n)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (op, n)
    assert ref.remaining == 0
