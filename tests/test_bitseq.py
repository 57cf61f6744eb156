import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twofaced.bitseq import BitSequence, as_bit_array, decode_stream, encode_stream
from twofaced.sources import ReplayBitSource

bit_lists = st.lists(st.integers(0, 1), max_size=200)


def test_construction_and_len():
    assert len(BitSequence("0110")) == 4
    assert len(BitSequence([1, 0, 1])) == 3
    assert len(BitSequence()) == 0
    assert BitSequence("0110").to_ascii01() == "0110"


def test_rejects_non_bits():
    with pytest.raises(ValueError):
        BitSequence([0, 2])
    with pytest.raises(ValueError):
        BitSequence.from_ascii01("01x")
    with pytest.raises(ValueError, match="one-dimensional"):
        as_bit_array(np.zeros((2, 4), np.uint8))
    # uint8 input skips the 0-or-1 compare, so only its max guards it
    for raw in (np.array([0, 2], np.uint8), b"\x01\x02"):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            as_bit_array(raw)


def test_repr_shows_at_most_64_bits():
    assert repr(BitSequence("0110")) == "BitSequence('0110', len=4)"
    bits = "0111" * 20
    assert repr(BitSequence(bits[:64])) == f"BitSequence('{bits[:64]}', len=64)"
    assert repr(BitSequence(bits)) == f"BitSequence('{bits[:64]}...', len=80)"


def test_ascii_ignores_whitespace():
    assert BitSequence.from_ascii01("01 10\n11\t") == BitSequence("011011")


def test_packed_bit_order():
    # first stream bit goes to the least-significant position
    assert BitSequence("10000000").to_packed() == b"\x01"
    assert BitSequence("00000001").to_packed() == b"\x80"
    assert BitSequence("101").to_packed() == b"\x05"


def test_packed_partial_byte_zero_padded():
    assert BitSequence("111").to_packed() == b"\x07"
    assert BitSequence.from_packed(b"\x07", 3) == BitSequence("111")


def test_from_packed_length_check():
    with pytest.raises(ValueError):
        BitSequence.from_packed(b"\x00", 9)


def test_negative_bit_count_rejected():
    # numpy's unpackbits would read a negative count as "drop from the end"
    with pytest.raises(ValueError):
        BitSequence.from_packed(b"\xff", -3)
    with pytest.raises(ValueError):
        BitSequence.from_hex("ff", -1)
    assert len(BitSequence.from_packed(b"\xff", 0)) == 0


def test_hex_lowercase():
    h = BitSequence("00000001" * 2).to_hex()
    assert h == h.lower() == "8080"


@given(bit_lists)
def test_ascii_round_trip(bits):
    seq = BitSequence(bits)
    assert BitSequence.from_ascii01(seq.to_ascii01()) == seq


@given(bit_lists)
def test_packed_round_trip(bits):
    seq = BitSequence(bits)
    assert BitSequence.from_packed(seq.to_packed(), len(seq)) == seq


@given(bit_lists)
def test_hex_round_trip(bits):
    seq = BitSequence(bits)
    assert BitSequence.from_hex(seq.to_hex(), len(seq)) == seq


@given(bit_lists)
def test_stream_codec_round_trip(bits):
    seq = BitSequence(bits)
    assert decode_stream(encode_stream(seq, "ascii01"), "ascii01") == seq
    # packed and hex carry the bit length externally; full bytes survive
    padded = BitSequence(list(bits) + [0] * (-len(bits) % 8))
    for fmt in ("packed", "hex"):
        assert decode_stream(encode_stream(padded, fmt), fmt) == padded


def test_xor_and_concat():
    a, b = BitSequence("10110"), BitSequence("01010")
    assert (a ^ b) == BitSequence("11100")
    with pytest.raises(ValueError):
        a ^ BitSequence("01")
    # only bit sequences compare equal or XOR
    assert (BitSequence("01") == "01") is False
    with pytest.raises(TypeError, match="unsupported operand"):
        BitSequence("01") ^ 1


def test_slicing_and_indexing():
    seq = BitSequence("10110")
    assert seq[0] == 1 and seq[4] == 0
    assert seq[1:4] == BitSequence("011")
    assert list(seq) == [1, 0, 1, 1, 0]


def test_array_is_read_only():
    seq = BitSequence("101")
    with pytest.raises(ValueError):
        seq.array[0] = 0


def test_owners_copy_a_shared_array():
    # as_bit_array hands a uint8 array back as is; BitSequence copies it,
    # leaving the caller's array writable and not following later writes
    # to it, and ReplayBitSource copies a bytearray of packed bits.
    arr = np.array([0, 1, 1, 0], dtype=np.uint8)
    assert as_bit_array(arr) is arr
    seq = BitSequence(arr)
    buf = bytearray([0, 1])
    from_buf = BitSequence(buf)
    packed = bytearray(seq.to_packed())
    src = ReplayBitSource(packed, 4)
    assert arr.flags.writeable
    arr[:] = 1
    buf[0] = 1
    packed[0] = 0xFF
    assert seq == BitSequence("0110")
    assert src.bits(4).tolist() == [0, 1, 1, 0]
    assert from_buf == BitSequence("01")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        encode_stream(BitSequence("1"), "base64")
    with pytest.raises(ValueError):
        decode_stream(b"1", "base64")


def test_non_integral_bits_rejected():
    with pytest.raises(ValueError):
        BitSequence(np.array([0.6, 1.9]))
    with pytest.raises(ValueError):
        BitSequence([0.6, 1.0])
    with pytest.raises(ValueError):
        BitSequence(np.array([256]))  # would wrap to 0 as uint8
    assert BitSequence(np.array([1.0, 0.0])) == BitSequence("10")
