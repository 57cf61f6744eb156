import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twofaced import expander
from twofaced.bitseq import BitSequence, as_bit_array
from twofaced.expander import (PI_FLOOR, ExpanderConfig, _coder,
                               bernoulli_decode, bernoulli_encode,
                               entropy_inverse, expand)
from twofaced.generator import limit_entropy
from twofaced.sources import CounterBitSource, UniformRealSource
from twofaced.transform import transform

bit_lists = st.lists(st.integers(0, 1), max_size=256)
pis = st.sampled_from([0.01, 0.1, 0.3, 0.5, 0.77, 0.99])


def _bernoulli(pi, n, seed):
    draws = UniformRealSource.from_seed(seed).reals(n)
    return BitSequence((draws >= pi).astype(np.uint8))  # P(0) = pi


def test_entropy_inverse_endpoints():
    assert entropy_inverse(1.0) == 0.5
    p = entropy_inverse(0.5)
    assert p == pytest.approx(0.110028, abs=1e-6)
    assert abs(limit_entropy(p) - 0.5) <= 1e-12
    # at or below H(PI_FLOOR) the result is floored
    assert entropy_inverse(1e-12) == entropy_inverse(limit_entropy(PI_FLOOR)) == PI_FLOOR


def test_entropy_inverse_matches_forward():
    h = limit_entropy(0.01)
    assert entropy_inverse(h) == pytest.approx(0.01, abs=1e-9)


def test_entropy_inverse_grid_right_inverse():
    for i in range(1, 101):
        h = i / 100.0
        p = entropy_inverse(h)
        assert 0.0 < p <= 0.5
        assert abs(limit_entropy(p) - h) <= 1e-12


def test_entropy_inverse_domain():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            entropy_inverse(bad)


def test_expander_config_validation():
    with pytest.raises(ValueError):
        ExpanderConfig(0, 10)
    with pytest.raises(ValueError):
        ExpanderConfig(2, 0)
    with pytest.raises(ValueError):
        ExpanderConfig(2, 10, precision=8)


def test_coder_rejects_the_configs_out_of_range_precisions():
    # At 3 bits the split gave f0 = 0 and 7 bits encoded to one; 15 and 63
    # were taken though ExpanderConfig refuses them.
    x = BitSequence(CounterBitSource(3).bits(7))
    for precision in (3, 15, 63):
        for call in (lambda: ExpanderConfig(2, 10, precision),
                     lambda: bernoulli_encode(x, 0.3, precision),
                     lambda: bernoulli_decode(x, 0.3, 7, precision)):
            with pytest.raises(ValueError, match=r"^precision must lie in \[16, 62\]$"):
                call()


def test_expander_config_takes_integral_values_only():
    config = ExpanderConfig(np.int64(16), np.int64(4096), np.int64(24))
    assert (config.order, config.target_len, config.precision) == (16, 4096, 24)
    assert all(type(v) is int
               for v in (config.order, config.target_len, config.precision))
    for bad in ((2.7, 4096), (16.0, 4096), (16, 4096.0), (16, 4096, 24.0)):
        with pytest.raises(ValueError):
            ExpanderConfig(*bad)


def test_coder_golden_vectors():
    x = BitSequence("1011001110001111")
    assert bernoulli_encode(x, 0.3).to_ascii01() == "01101001110011"
    assert bernoulli_encode(x, 0.05).to_ascii01() == "000011011111110101010000111"


def test_encode_length_at_half():
    # the mid-split model is incompressible: one emitted bit per symbol
    # plus the terminator
    for n in (1, 8, 100):
        x = BitSequence(CounterBitSource(n).bits(n))
        assert abs(len(bernoulli_encode(x, 0.5)) - n) <= 2


def test_decode_passthrough_at_half():
    code = BitSequence(CounterBitSource(3).bits(64))
    out = bernoulli_decode(code, 0.5, 40)
    assert out == code[:40]


@given(bit_lists, pis)
def test_round_trip(bits, pi):
    x = BitSequence(bits)
    code = bernoulli_encode(x, pi)
    assert bernoulli_decode(code, pi, len(x)) == x


@given(st.lists(st.integers(0, 1), max_size=64), pis,
       st.sampled_from([16, 24, 32, 62]))
@settings(max_examples=40)
def test_round_trip_other_precisions(bits, pi, precision):
    x = BitSequence(bits)
    code = bernoulli_encode(x, pi, precision)
    assert bernoulli_decode(code, pi, len(x), precision) == x


def test_round_trip_long_fixed():
    for pi, seed in ((0.01, 1), (0.1, 2), (0.3, 3), (0.5, 4)):
        x = _bernoulli(pi, 10 ** 4, seed)
        assert bernoulli_decode(bernoulli_encode(x, pi), pi, len(x)) == x


def test_compression_rate_near_entropy():
    n = 10 ** 5
    x = _bernoulli(0.1, n, 42)
    rate = len(bernoulli_encode(x, 0.1)) / n
    h = limit_entropy(0.1)
    assert h - 0.01 <= rate <= h + 0.02
    assert 0.459 <= rate <= 0.489


def test_decode_random_code_frequency():
    code = BitSequence(CounterBitSource(0).bits(10 ** 4))
    n = round(10 ** 4 / limit_entropy(0.2))
    out = bernoulli_decode(code, 0.2, n)
    freq0 = 1.0 - out.array.mean()
    assert freq0 == pytest.approx(0.2, abs=0.01)


def test_decode_total_beyond_code():
    # decoding far past the code entropy still yields bits (zero padding)
    out = bernoulli_decode(BitSequence("1"), 0.3, 500)
    assert len(out) == 500


def test_decode_edge_args():
    assert len(bernoulli_decode(BitSequence("101"), 0.3, 0)) == 0
    with pytest.raises(ValueError):
        bernoulli_decode(BitSequence("101"), 0.3, -1)
    with pytest.raises(ValueError):
        bernoulli_encode(BitSequence("101"), 0.0)


@pytest.mark.parametrize("pi", [0.0, 1.0, -0.1, float("nan")])
def test_coders_reject_pi_outside_open_interval(pi):
    message = re.escape(f"pi must lie strictly inside (0, 1), got {pi!r}")
    with pytest.raises(ValueError, match=message):
        bernoulli_encode(BitSequence("101"), pi)
    with pytest.raises(ValueError, match=message):
        bernoulli_decode(BitSequence("101"), pi, 3)


def test_expand_deterministic():
    seed = BitSequence(CounterBitSource(55).bits(100))
    config = ExpanderConfig(order=8, target_len=2000)
    assert expand(seed, config) == expand(seed, config)
    assert len(expand(seed, config)) == 2000


def test_expand_full_entropy_equals_transform_of_code():
    seed = BitSequence(CounterBitSource(9).bits(68))
    config = ExpanderConfig(order=4, target_len=64)  # h = 1 exactly
    assert expand(seed, config) == transform(seed[4:], seed[:4])


def test_expand_argument_errors():
    config = ExpanderConfig(order=8, target_len=100)
    with pytest.raises(ValueError):
        expand(BitSequence(np.zeros(8, np.uint8)), config)  # not longer than the order
    with pytest.raises(ValueError):
        expand(BitSequence(CounterBitSource(1).bits(200)),
               ExpanderConfig(order=8, target_len=100))  # h > 1


def test_expand_block_law_is_exactly_uniform_over_initial_words():
    # For a fixed code part, the window at every offset is a bijection of
    # the initial word, so uniform initial words give exactly uniform
    # order-length blocks; checked by enumeration.
    k, n = 6, 120
    code = BitSequence(CounterBitSource(5).bits(54))
    pi = entropy_inverse(54 / n)
    decoded = bernoulli_decode(code, pi, n)
    seen_per_offset = [set() for _ in range(n - k + 1)]
    for v0 in range(1 << k):
        vbits = [(v0 >> (k - 1 - j)) & 1 for j in range(k)]
        y = transform(decoded, vbits).array
        w = np.zeros(n - k + 1, dtype=np.int64)
        for j in range(k):
            w <<= 1
            w |= y[j:j + n - k + 1]
        for off, val in enumerate(w.tolist()):
            seen_per_offset[off].add(val)
    assert all(len(seen) == 1 << k for seen in seen_per_offset)


def test_expand_aggregated_block_statistics():
    # many expansions from a fixed seed list; aggregated short-block
    # frequencies stay within 10% relative of uniform
    from twofaced.stats import block_frequencies
    config = ExpanderConfig(order=16, target_len=4096)
    agg = {m: np.zeros(1 << m, dtype=np.int64) for m in range(1, 5)}
    windows = {m: 0 for m in agg}
    src = CounterBitSource(2024)
    for _ in range(400):
        out = expand(BitSequence(src.bits(128)), config)
        for m in agg:
            stats = block_frequencies(out, m)
            agg[m] += stats.counts
            windows[m] += stats.windows
    for m in agg:
        reldev = float(np.abs(agg[m] / windows[m] - 2.0 ** -m).max()) * (1 << m)
        assert reldev <= 0.10


class _ReferenceDecoder:
    """The per-symbol range decoder, kept as the reference that
    `bernoulli_decode` must match bit for bit."""

    def __init__(self, precision: int, code: np.ndarray):
        self.mask = (1 << precision) - 1
        self.top = 1 << (precision - 1)
        self.second = self.top >> 1
        self.low = 0
        self.high = self.mask
        self._code_bits = code
        self._next = 0
        self.code = 0
        for _ in range(precision):
            self.code = (self.code << 1) | self._read_bit()

    def _read_bit(self) -> int:
        # Exhausted code words continue with zeros: decoding is total.
        if self._next < self._code_bits.size:
            bit = int(self._code_bits[self._next])
            self._next += 1
            return bit
        return 0

    def decode(self, f0: int, total: int) -> int:
        span = self.high - self.low + 1
        offset = self.code - self.low
        value = ((offset + 1) * total - 1) // span
        symbol = 0 if value < f0 else 1
        cum_lo, cum_hi = (0, f0) if symbol == 0 else (f0, total)
        self.high = self.low + (span * cum_hi) // total - 1
        self.low = self.low + (span * cum_lo) // total
        while ((self.low ^ self.high) & self.top) == 0:
            self.code = ((self.code << 1) & self.mask) | self._read_bit()
            self.low = (self.low << 1) & self.mask
            self.high = ((self.high << 1) & self.mask) | 1
        while (self.low & ~self.high & self.second) != 0:
            self.code = (self.code & self.top) | ((self.code << 1) & (self.mask >> 1)) \
                | self._read_bit()
            self.low = (self.low << 1) & (self.mask >> 1)
            self.high = ((self.high << 1) & (self.mask >> 1)) | self.top | 1
        return symbol


def _reference_decode(code, pi, n, precision=expander.DEFAULT_PRECISION):
    f0, total = _coder(pi, precision)[:2]
    dec = _ReferenceDecoder(precision, as_bit_array(code))
    return BitSequence([dec.decode(f0, total) for _ in range(n)])


# sha256 over the packed outputs of bernoulli_decode(_GOLDEN_CODE[:length],
# pi, n, precision) for length in (0, 1, 64, 1000) and n in (1, 17, 5000),
# one digest per (pi, precision) for precision in (16, 24, 62); computed
# with the per-symbol decoder above.
_GOLDEN_CODE = BitSequence(CounterBitSource(4).bits(1000))
_GOLDEN_DECODE = {
    1e-9: (
        "4b29943b73fa11ed06a01e9bedd5a674a0517af656279eb2b4cee70ece757d57",
        "80c75fae10a4aa604e11392c0cbf36cf9fe522c55936fa5a76c8bdddc424f7de",
        "80c75fae10a4aa604e11392c0cbf36cf9fe522c55936fa5a76c8bdddc424f7de",
    ),
    1.2645584646472377e-05: (
        "4b29943b73fa11ed06a01e9bedd5a674a0517af656279eb2b4cee70ece757d57",
        "80c75fae10a4aa604e11392c0cbf36cf9fe522c55936fa5a76c8bdddc424f7de",
        "80c75fae10a4aa604e11392c0cbf36cf9fe522c55936fa5a76c8bdddc424f7de",
    ),
    0.01: (
        "93bd54f8dc55afd2098fb94c466dcfe8afe44e158c418b4bf9eb41d255633f37",
        "6a215b6558c78397ba1ce04b2cac9bba5edfdced587350d88fe2c36dc1f84847",
        "3b5a4a171bae37988773faf1baec5ae235eea629d70fcbb3940e7de1faa33806",
    ),
    0.2: (
        "585ff39dc0bd655b160f796f658e9d3cbc82e40590b21c83ec89e74ad68f83d4",
        "0d6f2cf710c2d26b7a8af2710d475ef88088727f8e75f0b72eed21de59720554",
        "01e3a4470149276e008d156102258f83455aff7531d32d63de521aad065dfddb",
    ),
    0.5: (
        "3ac8535eb5c57c2b01e8d75f7b9d5a5bac93a7f371180dfb294d7aa78b960776",
        "3ac8535eb5c57c2b01e8d75f7b9d5a5bac93a7f371180dfb294d7aa78b960776",
        "3ac8535eb5c57c2b01e8d75f7b9d5a5bac93a7f371180dfb294d7aa78b960776",
    ),
    0.77: (
        "b01aac54e3c0f3ca98eaf9b3ce995df3ac6f38ec4e4d6421ab1a4dc8584a1f08",
        "6c6aef88c6dd4f103742ba8a98ce2de6f611001d8507d52c8010b0ad77600d31",
        "af587682ebf7cc3c4a917ebbaaed22e192b07d9d6b7397dd79ed072364394165",
    ),
    0.99: (
        "062223cd83807ea4d13c83b0330044dfcbe9c44b07348dc60fd9e67dad7faf04",
        "cc2a5c1100b0d513311492b71ac8bda9b7e50c4bd22d88a90f6da7c0d54312b1",
        "b092751d3b43fe4749ca6519d491011b428c09a2d36c9e62c9f9eb5bfb766b0f",
    ),
}


@pytest.mark.parametrize("pi", sorted(_GOLDEN_DECODE))
def test_decode_golden_digests(pi):
    for precision, want in zip((16, 24, 62), _GOLDEN_DECODE[pi]):
        h = hashlib.sha256()
        for length in (0, 1, 64, 1000):
            for n in (1, 17, 5000):
                h.update(bernoulli_decode(_GOLDEN_CODE[:length], pi, n,
                                          precision).to_packed())
        assert h.hexdigest() == want, precision


# sha256 over bernoulli_encode(x, pi, precision) in ascii01, one line per
# input, for input lengths n in (0, 1, 64, 5000) and two inputs each: iid
# bits with P(0) = pi (draws from UniformRealSource.from_seed(n)) and fair
# bits (CounterBitSource(n)); one digest per (pi, precision) for precision
# in (16, 24, 62); computed with the three-method encoder that the single
# function replaced.
_GOLDEN_ENCODE = {
    1e-9: (
        "5655ac2d802f14befb6a114f133c6359fb5224bb1a1652d8e352eaaf20d92d23",
        "9bff0776062c945f3104930ad80f48102004402a960caf8152e778ed14a82233",
        "f8ef299f02fd681028ac00d22a3151fc8c9b4e855bdf461200c20bab561f03e6",
    ),
    1.2645584646472377e-05: (
        "5655ac2d802f14befb6a114f133c6359fb5224bb1a1652d8e352eaaf20d92d23",
        "4e6ec39678f5bbe7703233ab370a3d537e3b7259cd7d04e9721d30f54c7871fe",
        "174002c7fa3c44487869c819a171e15a6e09c4685e8933f54ea16741aaaa6843",
    ),
    0.01: (
        "5560c198dff152c2965a95e9c59d38412b2655f0310ea911a42f9e476589487b",
        "aedeb183e56ef69efb13d74236a6b8efb11138e7f8baca59411307e8833536c3",
        "3ac061b819f6db3771727f946b3a22820992de5ac05a30fc92089f87b6b1c8a9",
    ),
    0.2: (
        "578f321f975fd8b42d42f54bfe4e42bd17b2ce473aac233d009ef71d429419a0",
        "5efcb646a5cba41808e07311d7f1fad713fbd7a052db46a4e505a348a56fa7b9",
        "625bc5790da1ce6003438e2472c6ee90938ad9f5b0f559cbb497d04b14e8a790",
    ),
    0.5: (
        "225f67a229891e06df30da9618d4a092f2e41cf383d3da1d3350f75e05bd48d5",
        "225f67a229891e06df30da9618d4a092f2e41cf383d3da1d3350f75e05bd48d5",
        "225f67a229891e06df30da9618d4a092f2e41cf383d3da1d3350f75e05bd48d5",
    ),
    0.77: (
        "fdcbfbc729c6289c09fed4accb5a0e85263b115d9b07507f0bfec5a7f62ff9a3",
        "88d47ca139dd09c0d821faf714b0e3b55da7d072e691e0f3a33bca321b4a6ceb",
        "1fac34b798b838c87cd5994ddd56e90be161e286316d9e01f7d869ed3aa07eb8",
    ),
    0.99: (
        "17c7f86414f72e324670dcf5c6329ee898da9c5cfb24b3accd17786f4a560797",
        "15059c8d5fe1d88b4ef554c111927faf389bd99b03ffe4aadf6efc3ddf24a8fd",
        "3e55d80c106fb9932340171bb16e1961ed28ae5a4badd36f60e0276112c3ca04",
    ),
}


@pytest.mark.parametrize("pi", sorted(_GOLDEN_ENCODE))
def test_encode_golden_digests(pi):
    for precision, want in zip((16, 24, 62), _GOLDEN_ENCODE[pi]):
        h = hashlib.sha256()
        for n in (0, 1, 64, 5000):
            for x in (_bernoulli(pi, n, n), BitSequence(CounterBitSource(n).bits(n))):
                code = bernoulli_encode(x, pi, precision)
                h.update(code.to_ascii01().encode() + b"\n")
        assert h.hexdigest() == want, precision


def test_expand_golden_digest_at_benchmark_shape():
    # 128-bit seed, order 16: 112 code bits decoded at pi ~ 1.26e-5
    seed = BitSequence(CounterBitSource(5).bits(128))
    out = expand(seed, ExpanderConfig(order=16, target_len=500_000))
    assert hashlib.sha256(out.to_packed()).hexdigest() == (
        "43f146697d474a7b586fdf498f715137ca456cf0deb0a022dfb0e0e9bfb6b3aa")


_DIFF_PIS = (PI_FLOOR, 1.2645584646472377e-05, 0.01, 0.3, 0.5 - 1e-9, 0.5,
             0.5 + 1e-9, 0.77, 0.999, 1.0 - PI_FLOOR)


@given(st.lists(st.integers(0, 1), max_size=200),
       st.one_of(st.sampled_from(_DIFF_PIS), st.floats(PI_FLOOR, 1.0 - PI_FLOOR)),
       st.integers(0, 2000), st.integers(16, 62))
def test_decode_matches_reference(bits, pi, n, precision):
    code = BitSequence(bits)
    assert bernoulli_decode(code, pi, n, precision) == \
        _reference_decode(code, pi, n, precision)


def test_decode_matches_reference_every_precision():
    # codes shorter than the register (zero fill from the start) and
    # longer ones, decoded well past their end
    for precision in range(16, 63):
        for pi in (PI_FLOOR, 0.01, 0.3, 0.5, 0.7, 0.999):
            for length in (precision // 2, 4 * precision):
                code = _GOLDEN_CODE[:length]
                assert bernoulli_decode(code, pi, 300, precision) == \
                    _reference_decode(code, pi, 300, precision), (precision, pi)


def test_decode_matches_reference_long_runs():
    # Narrow registers and long outputs make thousands of renormalisations,
    # enough that a run ends exactly on a threshold now and then.
    code = BitSequence(CounterBitSource(0).bits(20000))
    for precision in (16, 17, 18):
        for pi in (0.01, 0.3, 0.75, 0.99):
            assert bernoulli_decode(code, pi, 20000, precision) == \
                _reference_decode(code, pi, 20000, precision), (precision, pi)
    # Below 1 / _GROUP_RUN runs are stepped in groups of 8 under a bound:
    # runs of thousands of steps, and outputs too short for a group (5) or
    # that end in one (8, 9, 15), where the n - i cap and the checked loop
    # both run.  An empty code decodes to all 0s, which the reference takes
    # one renormalisation cascade each, so a tenth of the length does there.
    assert 1e-3 * expander._GROUP_RUN < 1
    code = BitSequence(CounterBitSource(0).bits(3000))
    for precision in (16, 40, 62):
        for pi in (PI_FLOOR, 1.2645584646472377e-05, 1e-3):
            for length in (0, 112, 3000):
                longest = 50_001 if length else 5_001
                want = _reference_decode(code[:length], pi, longest, precision)
                for n in (5, 8, 9, 15, longest):
                    assert bernoulli_decode(code[:length], pi, n, precision) == \
                        want[:n], (precision, pi, length, n)


def test_decode_zero_fill_matches_reference():
    # Once no 1 is left to read and point == low, every later bit is 0 and
    # the decoder fills them in at once.  That happens from the start for
    # the empty code and a code of 0s, and, at precision 16 and pi 0.01 or
    # 0.2, from bit 300 to 1,900 after codes of 11, 17 and 21 bits, whose
    # zero tails are read once they end.  A 1 after a register of 0s starts
    # at point == low but must not be filled over.  The reference takes
    # each 0 below pi 0.01 as a cascade of about log2(1 / pi)
    # renormalisations, so it decodes a tenth of the length there.
    head = BitSequence(CounterBitSource(0).bits(200))
    zeros = np.zeros(70, np.uint8)
    codes = (zeros[:0], zeros, np.append(zeros, 1), head[:11], head[:17], head[:21],
             np.concatenate((head[:112], zeros)), np.concatenate((head, zeros)))
    for precision in (16, 40, 62):
        for pi in (PI_FLOOR, 1.2645584646472377e-05, 1e-3, 0.01, 0.2):
            checked = 10_001 if pi >= 0.01 else 5_001
            for code in codes:
                got = bernoulli_decode(code, pi, 50_001, precision)
                assert got[:checked] == _reference_decode(code, pi, checked, precision), \
                    (precision, pi, code.size)
                assert bernoulli_decode(code, pi, 9, precision) == got[:9]


def test_expand_decodes_through_module_global(monkeypatch):
    # The benchmark's `expander` layer is traced by rebinding this name.
    seed = BitSequence(CounterBitSource(6).bits(64))
    config = ExpanderConfig(order=8, target_len=1000)
    want = expand(seed, config)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return bernoulli_decode(*args, **kwargs)

    monkeypatch.setattr(expander, "bernoulli_decode", spy)
    assert expand(seed, config) == want
    assert len(calls) == 1 and len(calls[0][0]) == 56 and calls[0][2] == 1000
