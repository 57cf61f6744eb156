import hashlib
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import StateDistribution, exact_block_distribution
from twofaced.bitseq import BitSequence
from twofaced.cli import run
from twofaced.combine import (ComponentSpec, CutSequence, TwiceTwoFacedConfig,
                              component_stream, default_config, load_config,
                              parse_config, render_config, twice_two_faced,
                              twice_two_faced_from_config)
from twofaced.errors import ConfigurationError
from twofaced.generator import generate, init_uniform
from twofaced.kernels import KernelSpec, Variant
from twofaced.sources import CounterBitSource, UniformRealSource
from twofaced.stats import block_frequencies

bit_lists = st.lists(st.integers(0, 1), max_size=64)


def test_xor_examples():
    assert BitSequence("10110") ^ BitSequence("01010") == BitSequence("11100")
    a = BitSequence("110011")
    assert a ^ a == BitSequence(np.zeros(6, np.uint8))
    with pytest.raises(ValueError):
        BitSequence("10") ^ BitSequence("1")


@given(bit_lists, bit_lists, bit_lists)
def test_xor_algebra(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = BitSequence(a[:n]), BitSequence(b[:n]), BitSequence(c[:n])
    assert a ^ b == b ^ a
    assert (a ^ b) ^ c == a ^ (b ^ c)
    assert a ^ BitSequence(np.zeros(n, np.uint8)) == a


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
        twice_two_faced([lambda n: BitSequence(np.zeros(n, np.uint8))],
                        CutSequence((2,)), 5)


def test_components_instantiated_lazily():
    calls = []

    def make(tag):
        def factory(n):
            calls.append(tag)
            return BitSequence(np.zeros(n, np.uint8))
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
    assert [c.kernel.order for c in config.components] == [2, 4, 8]
    again = parse_config(render_config(config))
    assert again == config


def test_config_round_trip_keeps_bar_variant():
    plain = ComponentSpec(KernelSpec(Variant.PLAIN, 2, 0.2), 11)
    bar = ComponentSpec(KernelSpec(Variant.BAR, 4, 0.3), 12)
    config = TwiceTwoFacedConfig(CutSequence((2,)), (plain, bar))
    text = render_config(config)
    assert text.splitlines()[1:] == ["component order=2 pi=0.2 seed=11",
                                     "component order=4 pi=0.3 seed=12 variant=bar"]
    assert parse_config(text) == config
    explicit = parse_config("component order=2 pi=0.2 seed=11 variant=plain")
    assert explicit.components == (plain,)
    for bad in ("BAR", "flipped", ""):
        with pytest.raises(ConfigurationError, match="not a valid Variant"):
            parse_config(f"component order=2 pi=0.2 seed=1 variant={bad}")


def test_config_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_config("component order=2 pi=0.2")  # missing seed
    for cut in ("cut", "cut 2 4"):
        with pytest.raises(ConfigurationError, match="line 1: cut takes one position, got"):
            parse_config(f"{cut}\ncomponent order=2 pi=0.2 seed=1")
    with pytest.raises(ConfigurationError, match="line 2: component field 'seed' is not key="):
        parse_config("cut 2\ncomponent order=2 pi=0.2 seed 1")
    path = tmp_path / "bad.cfg"
    path.write_text("cut 2 4\ncomponent order=2 pi=0.2 seed=1\n")
    out, err = io.BytesIO(), io.StringIO()
    assert run(["combine", "--config", str(path), "--length", "8"], io.BytesIO(), out, err) == 1
    assert (out.getvalue(), err.getvalue()) == (
        b"", "twofaced combine: config line 1: cut takes one position, got 2\n")
    for line, message in (("cut 2.5", "cut '2.5' is not a decimal integer"),
                          ("component order=2.5 pi=0.2 seed=1", "order '2.5' is not a decimal"),
                          ("component order=2 pi=abc seed=1", "pi 'abc' is not a number"),
                          ("component order=2 pi=0.2 seed=0x10", "seed '0x10' is not a decimal"),
                          ("component order=2 pi=0.2 seed=1 variant=BAR", "variant 'BAR' is not")):
        with pytest.raises(ConfigurationError, match=f"line 2: {message}"):
            parse_config(f"cut 2\n{line}\ncomponent order=2 pi=0.2 seed=1")
    path.write_text("cut 2\ncomponent order=2 pi=0.2 seed=1\ncomponent order=4 pi=x seed=2\n")
    err = io.StringIO()
    assert run(["combine", "--config", str(path), "--length", "8"], io.BytesIO(), out, err) == 1
    assert (out.getvalue(), err.getvalue()) == (
        b"", "twofaced combine: config line 3: pi 'x' is not a number\n")
    with pytest.raises(ConfigurationError):
        parse_config("cut x\ncomponent order=2 pi=0.2 seed=1")
    with pytest.raises(ConfigurationError):
        parse_config("cut 2")  # no components
    with pytest.raises(ConfigurationError):
        parse_config("frob 1\ncomponent order=2 pi=0.2 seed=1")
    with pytest.raises(ConfigurationError):
        parse_config("cut 4\ncut 2\ncomponent order=2 pi=0.2 seed=1")


def test_config_rejects_components_never_built():
    # the third component lies past any requested length, yet is invalid
    text = "cut 2\ncomponent order=2 pi=0.2 seed=1\ncomponent order=0 pi=7 seed=1"
    with pytest.raises(ConfigurationError, match="config line 3: order"):
        parse_config(text)
    for bad in ({"order": 0, "pi": 0.2}, {"order": 2, "pi": 7.0},
                {"order": 2.5, "pi": 0.2}):
        with pytest.raises(ValueError):
            ComponentSpec(KernelSpec(Variant.PLAIN, **bad), 1)


def test_config_rejects_seeds_outside_64_bits():
    for seed in (1 << 64, -1):
        with pytest.raises(ConfigurationError, match="config line 2: seed must lie"):
            parse_config(f"cut 2\ncomponent order=2 pi=0.2 seed={seed}")
        with pytest.raises(ValueError):
            ComponentSpec(KernelSpec(Variant.PLAIN, 2, 0.2), seed)
        # a base seed is not aliased either (-1 to 2^64 - 1, 2^64 to 0)
        with pytest.raises(ValueError, match=f"seed must lie in .*, got {seed}$"):
            default_config(pi=0.2, seed=seed, n=100)
    assert default_config(pi=0.2, seed=(1 << 64) - 1, n=100).components


def test_component_seed_is_not_truncated():
    # once sampled as seed 2 and rendered as seed=2.5, which parse_config refuses
    with pytest.raises(ValueError, match="seed must be an integer, got 2.5"):
        ComponentSpec(KernelSpec(Variant.PLAIN, 2, 0.2), 2.5)
    for seed in (np.uint64(5), True):  # kept as the int that render_config writes
        spec = ComponentSpec(KernelSpec(Variant.PLAIN, 2, 0.2), seed)
        assert type(spec.seed) is int and spec.seed == int(seed)


def test_config_rejects_repeated_keys():
    for line in ("component order=2 pi=0.2 seed=1 order=3",
                 "component order=2 pi=0.2 seed=1 variant=bar variant=plain"):
        with pytest.raises(ConfigurationError, match="config line 1: repeated key"):
            parse_config(line)


def test_load_config(tmp_path):
    path = tmp_path / "mask.cfg"
    cfg = default_config(pi=0.2, seed=5, n=100)
    path.write_text(render_config(cfg))
    assert load_config(path) == cfg


# sha256 of render_config(default_config(0.2, seed, 100_000)): the ladder
# config of the benchmark's ladder-combine workload at its default and
# held-out seeds, whose stream digests depend on it.
_LADDER_CONFIG_DIGESTS = {
    9: "fcb852856b5e7cfd0d617755dad63d133cd3e445be61b1ad4d77ba5cbaac45ca",
    1512: "8d6bc4608dfab5134fef0f499defaacd75bcf4b2dc1e91f96124f15b9e181a9b",
}


@pytest.mark.parametrize("seed", sorted(_LADDER_CONFIG_DIGESTS))
def test_ladder_config_text_golden_digest(seed):
    text = render_config(default_config(0.2, seed, 100_000))
    assert hashlib.sha256(text.encode()).hexdigest() == _LADDER_CONFIG_DIGESTS[seed]
    assert render_config(parse_config(text)) == text


def test_default_config_covers_length():
    cfg = default_config(pi=0.2, seed=5, n=1000)
    assert cfg.cuts.cuts[-1] >= 1000
    assert len(cfg.components) >= len(cfg.cuts.segment_starts(1000))
    assert [c.kernel.order for c in cfg.components] == list(cfg.cuts.cuts)
    seeds = [c.seed for c in cfg.components]
    assert len(set(seeds)) == len(seeds)


def test_component_stream_deterministic():
    spec = ComponentSpec(KernelSpec(Variant.PLAIN, 3, 0.2), 77)
    factory = component_stream(spec)
    assert factory(50) == factory(50)
    # a longer request extends the same stream
    assert factory(50) == factory(80)[:50]


def test_whiten_constant_input_statistics():
    # all-ones input XOR an order-8 mask still looks uniform through m = 8
    ones = BitSequence(np.ones(2 * 10 ** 5, dtype=np.uint8))
    src = CounterBitSource(2)
    mask = generate(init_uniform(KernelSpec(Variant.PLAIN, 8, 0.2), src), len(ones),
                    UniformRealSource(src))
    out = ones ^ mask
    for m in range(1, 9):
        assert block_frequencies(out, m).p_value > 1e-4


def test_whiten_biased_input_with_config_mask():
    # heavily biased iid input, growing-order mask, uniform through m = 10
    n = 5 * 10 ** 4
    draws = UniformRealSource.from_seed(1234).reals(n)
    biased = BitSequence((draws < 0.9).astype(np.uint8))  # P(1) = 0.9
    out = biased ^ twice_two_faced_from_config(default_config(pi=0.2, seed=0, n=n), n)
    for m in range(1, 11):
        assert block_frequencies(out, m).p_value > 1e-4


def test_twice_two_faced_from_config_matches_factories():
    cfg = default_config(pi=0.3, seed=21, n=64)
    direct = twice_two_faced([component_stream(c) for c in cfg.components],
                             cfg.cuts, 64)
    assert twice_two_faced_from_config(cfg, 64) == direct
