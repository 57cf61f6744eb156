import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twofaced.bitseq import BitSequence
from twofaced.errors import SourceExhaustedError
from twofaced._reference import ReplayRealSource
from twofaced.sources import (CounterBitSource, FileBitSource, OSBitSource,
                              ReplayBitSource, UniformRealSource, mix64,
                              next_bits)
from twofaced.stats import block_frequencies

_M64 = (1 << 64) - 1


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


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        CounterBitSource(0).bits(-1)
    assert CounterBitSource(0).bits(0).size == 0


def test_os_source_shape():
    out = OSBitSource().bits(37)
    assert out.size == 37 and set(out.tolist()) <= {0, 1}


def test_replay_source_exhaustion():
    src = ReplayBitSource("1010")
    assert src.bits(3).tolist() == [1, 0, 1]
    with pytest.raises(SourceExhaustedError):
        src.bits(2)


def test_file_source_round_trip(tmp_path):
    seq = BitSequence("10110011" * 3)
    path = tmp_path / "entropy.bin"
    path.write_bytes(seq.to_packed())
    src = FileBitSource(path)
    assert next_bits(src, 24) == seq
    with pytest.raises(SourceExhaustedError):
        src.bits(1)


def test_next_bits_returns_bitsequence():
    out = next_bits(CounterBitSource(1), 10)
    assert isinstance(out, BitSequence) and len(out) == 10
    assert len(next_bits(CounterBitSource(1), 0)) == 0


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
    bits = next_bits(CounterBitSource(314159), 10 ** 6)
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
    got = UniformRealSource(ReplayBitSource(bits)).reals(100)
    assert np.array_equal(got, _weighted_sum_reals(bits, 100))
    assert got[0] == 1.0 - 2.0 ** -53 and got[1] == 0.0
