import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twofaced.bitseq import BitSequence
from twofaced.combine import (ComponentSpec, CutSequence,
                              component_stream, default_config, load_config,
                              parse_config, render_config, twice_two_faced,
                              twice_two_faced_from_config, whiten, xor_streams)
from twofaced.errors import ConfigurationError
from twofaced.generator import (StateDistribution, exact_block_distribution,
                                generate, init_uniform)
from twofaced.kernels import KernelSpec, Variant
from twofaced.sources import CounterBitSource, UniformRealSource
from twofaced.stats import block_frequencies

bit_lists = st.lists(st.integers(0, 1), max_size=64)


def test_xor_examples():
    assert xor_streams(BitSequence("10110"), BitSequence("01010")) == BitSequence("11100")
    a = BitSequence("110011")
    assert xor_streams(a, a) == BitSequence.zeros(6)
    with pytest.raises(ValueError):
        xor_streams(BitSequence("10"), BitSequence("1"))


@given(bit_lists, bit_lists, bit_lists)
def test_xor_algebra(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = BitSequence(a[:n]), BitSequence(b[:n]), BitSequence(c[:n])
    assert xor_streams(a, b) == xor_streams(b, a)
    assert xor_streams(xor_streams(a, b), c) == xor_streams(a, xor_streams(b, c))
    assert xor_streams(a, BitSequence.zeros(n)) == a


def test_cut_sequence_validation():
    CutSequence((1, 2, 5))
    with pytest.raises(ValueError):
        CutSequence((2, 2))
    with pytest.raises(ValueError):
        CutSequence((3, 1))
    with pytest.raises(ValueError):
        CutSequence((0, 1))


def test_cut_sequence_takes_integral_values_only():
    cuts = CutSequence((np.int64(2), 4))
    assert cuts.cuts == (2, 4) and type(cuts.cuts[0]) is int
    for bad in ((2.7, 4), (2.0, 4), ("2", 4)):
        with pytest.raises(ValueError):
            CutSequence(bad)


def test_case_structure_with_fixed_components():
    # positions 1..2 take component 1 alone, 3..4 add component 2,
    # 5.. adds component 3
    x1 = BitSequence("11111")
    x2 = BitSequence("10101")
    x3 = BitSequence("00011")
    factories = [lambda n, s=s: s[:n] for s in (x1, x2, x3)]
    w = twice_two_faced(factories, CutSequence((2, 4)), 5)
    expect = [
        x1[0],
        x1[1],
        x1[2] ^ x2[2],
        x1[3] ^ x2[3],
        x1[4] ^ x2[4] ^ x3[4],
    ]
    assert list(w) == expect


def test_single_component_prefix():
    x1 = BitSequence("1100")
    w = twice_two_faced([lambda n: x1[:n]], CutSequence((10,)), 4)
    assert w == x1


def test_insufficient_components():
    with pytest.raises(ConfigurationError):
        twice_two_faced([lambda n: BitSequence.zeros(n)], CutSequence((2,)), 5)


def test_components_instantiated_lazily():
    calls = []

    def make(tag):
        def factory(n):
            calls.append(tag)
            return BitSequence.zeros(n)
        return factory

    twice_two_faced([make(1), make(2), make(3)], CutSequence((4, 8)), 4)
    assert calls == [1]  # cuts at/after the length stay untouched


def test_exact_uniformity_small_enumeration():
    # Orders (1, 2) over cuts (1, 2): enumerate both components' exact
    # two-letter laws and push every joint outcome through the combiner.
    pi = 0.3
    n = 2
    laws = []
    for order in (1, 2):
        kern = KernelSpec(Variant.PLAIN, order, pi)
        laws.append(exact_block_distribution(
            kern, StateDistribution.uniform(order), 0, n))
    w_law = np.zeros(1 << n)
    for a in range(1 << n):
        for b in range(1 << n):
            seq_a = BitSequence([(a >> 1) & 1, a & 1])
            seq_b = BitSequence([(b >> 1) & 1, b & 1])
            w = twice_two_faced(
                [lambda m, s=seq_a: s[:m], lambda m, s=seq_b: s[:m]],
                CutSequence((1, 2)), n)
            idx = (w[0] << 1) | w[1]
            w_law[idx] += laws[0][a] * laws[1][b]
    assert np.abs(w_law - 0.25).max() <= 1e-12


def test_config_parse_render_round_trip():
    text = """
# growing-order mask
cut 2
cut 4
component order=2 pi=0.2 seed=11
component order=4 pi=0.2 seed=12
component order=8 pi=0.2 seed=13
"""
    config = parse_config(text)
    assert config.cuts.cuts == (2, 4)
    assert [c.order for c in config.components] == [2, 4, 8]
    again = parse_config(render_config(config))
    assert again == config


def test_config_errors():
    with pytest.raises(ConfigurationError):
        parse_config("component order=2 pi=0.2")  # missing seed
    with pytest.raises(ConfigurationError):
        parse_config("cut x\ncomponent order=2 pi=0.2 seed=1")
    with pytest.raises(ConfigurationError):
        parse_config("cut 2")  # no components
    with pytest.raises(ConfigurationError):
        parse_config("frob 1\ncomponent order=2 pi=0.2 seed=1")
    with pytest.raises(ConfigurationError):
        parse_config("cut 4\ncut 2\ncomponent order=2 pi=0.2 seed=1")


def test_load_config(tmp_path):
    path = tmp_path / "mask.cfg"
    cfg = default_config(pi=0.2, seed=5, n=100)
    path.write_text(render_config(cfg))
    assert load_config(path) == cfg


def test_default_config_covers_length():
    cfg = default_config(pi=0.2, seed=5, n=1000)
    assert cfg.cuts.cuts[-1] >= 1000
    assert len(cfg.components) >= len(cfg.cuts.segment_starts(1000))
    assert [c.order for c in cfg.components] == list(cfg.cuts.cuts)
    seeds = [c.seed for c in cfg.components]
    assert len(set(seeds)) == len(seeds)


def test_component_stream_deterministic():
    spec = ComponentSpec(order=3, pi=0.2, seed=77)
    factory = component_stream(spec)
    assert factory(50) == factory(50)
    # a longer request extends the same stream
    assert factory(50) == factory(80)[:50]


def test_whiten_zero_input_returns_mask():
    kern = KernelSpec(Variant.PLAIN, 4, 0.2)
    out = whiten(BitSequence.zeros(200), kern, CounterBitSource(8))
    src = CounterBitSource(8)
    mask = generate(init_uniform(kern, src), 200, UniformRealSource(src))
    assert out == mask


def test_whiten_requires_source_for_kernel_mask():
    with pytest.raises(ValueError):
        whiten(BitSequence.zeros(8), KernelSpec(Variant.PLAIN, 2, 0.2))
    with pytest.raises(TypeError):
        whiten(BitSequence.zeros(8), "not a mask")


def test_whiten_constant_input_statistics():
    # all-ones input XOR an order-8 mask still looks uniform through m = 8
    ones = BitSequence(np.ones(2 * 10 ** 5, dtype=np.uint8))
    kern = KernelSpec(Variant.PLAIN, 8, 0.2)
    out = whiten(ones, kern, CounterBitSource(2))
    for m in range(1, 9):
        assert block_frequencies(out, m).p_value > 1e-4


def test_whiten_biased_input_with_config_mask():
    # heavily biased iid input, growing-order mask, uniform through m = 10
    n = 5 * 10 ** 4
    draws = UniformRealSource.from_seed(1234).reals(n)
    biased = BitSequence((draws < 0.9).astype(np.uint8))  # P(1) = 0.9
    out = whiten(biased, default_config(pi=0.2, seed=0, n=n))
    for m in range(1, 11):
        assert block_frequencies(out, m).p_value > 1e-4


def test_twice_two_faced_from_config_matches_factories():
    cfg = default_config(pi=0.3, seed=21, n=64)
    direct = twice_two_faced([component_stream(c) for c in cfg.components],
                             cfg.cuts, 64)
    assert twice_two_faced_from_config(cfg, 64) == direct
