import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twofaced._reference import (ReplayRealSource, cond_prob_recursive,
                                 generate_by_conversion)
from twofaced.errors import CapacityError, SourceExhaustedError
from twofaced.generator import (StateDistribution,
                                exact_block_distribution,
                                exact_conditional_entropy, generate,
                                init_fixed, init_uniform, limit_entropy,
                                propagate)
from twofaced.kernels import KernelSpec, Variant
from twofaced.sources import (CounterBitSource, ReplayBitSource,
                              UniformRealSource)
from twofaced.stats import chi_square_pvalue


def _kernel(k=2, pi=0.2, variant=Variant.PLAIN):
    return KernelSpec(variant, k, pi)


def test_init_uniform_copies_source_bits():
    state = init_uniform(_kernel(3), ReplayBitSource("101"))
    assert state.context_bits() == (1, 0, 1)
    state = init_uniform(_kernel(1), ReplayBitSource("0"))
    assert state.context_bits() == (0,)


def test_init_uniform_source_exhaustion():
    with pytest.raises(SourceExhaustedError):
        init_uniform(_kernel(3), ReplayBitSource("10"))


def test_init_fixed():
    state = init_fixed(_kernel(2), "01")
    assert state.context_bits() == (0, 1)
    state = init_fixed(_kernel(1), "1")
    assert state.context_bits() == (1,)
    with pytest.raises(ValueError):
        init_fixed(_kernel(2), "111")


def test_init_uniform_is_uniform_chi_square():
    k = 3
    src = CounterBitSource(17)
    counts = np.zeros(8, dtype=np.int64)
    trials = 10 ** 5
    for _ in range(trials):
        counts[init_uniform(_kernel(k), src).context] += 1
    expected = trials / 8
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi_square_pvalue(chi2, 7) > 1e-6


def test_next_bit_inverse_transform_rule():
    # one step of generate: context 00, P(0|00) = pi = 0.2; a draw below
    # it emits 0
    state = init_fixed(_kernel(2, 0.2), "00")
    assert list(generate(state, 1, ReplayRealSource([0.1]))) == [0]
    assert state.context_bits() == (0, 0)
    # context 01, P(0|01) = 0.8; 0.1 emits 0, 0.9 emits 1
    state = init_fixed(_kernel(2, 0.2), "01")
    assert list(generate(state, 1, ReplayRealSource([0.1]))) == [0]
    state = init_fixed(_kernel(2, 0.2), "01")
    assert list(generate(state, 1, ReplayRealSource([0.9]))) == [1]
    assert state.context_bits() == (1, 1)
    assert state.steps_emitted == 1


def test_generate_empty_and_negative():
    state = init_fixed(_kernel(), "00")
    assert len(generate(state, 0, ReplayRealSource([]))) == 0
    with pytest.raises(ValueError):
        generate(state, -1, ReplayRealSource([]))


def test_generate_deterministic_and_reproducible():
    def run():
        src = CounterBitSource(7)
        state = init_uniform(_kernel(4, 0.3), src)
        return generate(state, 500, UniformRealSource(src))

    assert run() == run()


def test_generate_matches_repeated_next_bit():
    # generate against a per-step loop on the same draws: emit 0 iff the
    # draw is below P(0 | window) from the kernel's literal recursion
    for variant in Variant:
        spec = _kernel(5, 0.2, variant)
        src_a = CounterBitSource(3)
        state_a = init_uniform(spec, src_a)
        whole = generate(state_a, 400, UniformRealSource(src_a))

        src_b = CounterBitSource(3)
        window = list(init_uniform(spec, src_b).context_bits())
        single = []
        for u in UniformRealSource(src_b).reals(400):
            bit = 0 if u < cond_prob_recursive(spec, 0, window[-5:]) else 1
            single.append(bit)
            window.append(bit)
        assert list(whole) == single
        assert state_a.context_bits() == tuple(window[-5:])
        assert state_a.steps_emitted == 400


# sha256 of generate's packed output (5,000 bits from a uniform start at
# seed 9) followed by the final window, computed before the pi-letter rule
# moved into `kernels`; pins the BAR sampler and pi on both sides of 1/2.
_GENERATE_DIGESTS = {
    ("plain", 5, 0.2): "a44a9c01d3b513f558ce2fd66412d9f590b32af861c376be085f9cd5483e6017",
    ("plain", 5, 0.77): "39b0802afe0096b4821ec182e7bfcbfe55a38753932035a092b9a3d274e8166c",
    ("plain", 16, 0.2): "e111aec8427cb7461c999b6a1b79c544d9999793d9e307c84c8fd27e08d91416",
    ("plain", 16, 0.77): "18242d98faadcf60893b11597f36c50c3bbeb514145c42684037e3dde210a758",
    ("bar", 5, 0.2): "b4fcc29e9cd305f3f6c6dacbd8343e1cfd46df1856e0b935de2717e99921145e",
    ("bar", 5, 0.77): "b06f74e30909d6d83560c78171e62bed0b371a9837a862c414b37da4a64a2278",
    ("bar", 16, 0.2): "80c34915c325954fe77baedd407d1b889e0d72342352c683887757e7b3dab47a",
    ("bar", 16, 0.77): "d08f8414efd857b2d5b7221203347bcd3a27347971453d5027412160ee8d289a",
}


def test_generate_golden_digests():
    got = {}
    for variant, order, pi in _GENERATE_DIGESTS:
        src = CounterBitSource(9)
        state = init_uniform(KernelSpec(Variant(variant), order, pi), src)
        out = generate(state, 5000, UniformRealSource(src))
        h = hashlib.sha256(out.to_packed())
        h.update(str(state.context).encode())
        got[variant, order, pi] = h.hexdigest()
    assert got == _GENERATE_DIGESTS


def test_state_distribution_validation():
    with pytest.raises(ValueError):
        StateDistribution(2, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        StateDistribution(1, np.array([0.7, 0.4]))
    with pytest.raises(ValueError):
        StateDistribution(1, np.array([-0.1, 1.1]))
    uni = StateDistribution.uniform(3)
    assert uni.probs.sum() == 1.0
    point = StateDistribution.point_mass(2, "10")
    assert point.probs.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_uniform_is_stationary_small():
    for k in range(1, 5):
        for pi in (0.1, 0.5, 0.9):
            for variant in Variant:
                dist = propagate(KernelSpec(variant, k, pi),
                                 StateDistribution.uniform(k), 1)
                assert np.abs(dist.probs - 2.0 ** -k).max() <= 1e-12


def test_exact_block_distribution_hand_case():
    # uniform start, order 1, pi = 0.2: the two-letter law
    law = exact_block_distribution(_kernel(1, 0.2), StateDistribution.uniform(1), 0, 2)
    assert np.allclose(law, [0.1, 0.4, 0.4, 0.1], atol=1e-15)
    assert law[0] == pytest.approx(0.5 * 0.2, abs=1e-15)


def test_exact_block_distribution_marginalizes():
    kern = _kernel(3, 0.2)
    law = exact_block_distribution(kern, StateDistribution.uniform(3), 4, 2)
    assert law.size == 4
    assert np.abs(law - 0.25).max() <= 1e-12


def test_exact_block_distribution_sums_to_one():
    kern = _kernel(3, 0.1)
    start = StateDistribution.point_mass(3, "110")
    for m in (1, 3, 6):
        law = exact_block_distribution(kern, start, 2, m)
        assert abs(law.sum() - 1.0) <= 1e-12
        assert law.min() >= 0.0


def test_exact_block_distribution_caps():
    with pytest.raises(CapacityError):
        exact_block_distribution(_kernel(2, 0.2), StateDistribution.uniform(2), 0, 11)
    with pytest.raises(ValueError):
        exact_block_distribution(_kernel(2, 0.2), StateDistribution.uniform(3), 0, 2)


def test_point_mass_converges_to_uniform():
    kern = _kernel(2, 0.2)
    dist = StateDistribution.point_mass(2, "11")
    for _ in range(200):
        dist = propagate(kern, dist, 1)
    assert np.abs(dist.probs - 0.25).max() < 1e-9


def test_sampling_matches_exact_distribution():
    # empirical window frequencies within 5 binomial sigmas of the exact law
    from twofaced.stats import block_frequencies
    kern = _kernel(3, 0.2)
    src = CounterBitSource(123)
    state = init_uniform(kern, src)
    seq = generate(state, 2 * 10 ** 5, UniformRealSource(src))
    for m in (1, 2, 3, 4, 5):
        exact = exact_block_distribution(kern, StateDistribution.uniform(3), 0, m)
        stats = block_frequencies(seq, m)
        sigma = np.sqrt(exact * (1 - exact) / stats.windows)
        assert np.abs(stats.frequencies - exact).max() <= (5 * sigma).max()


def test_sampling_routes_agree_in_law():
    # sequential sampling and biased-stream conversion give the same
    # block laws, both matching the exact chain distribution
    from twofaced.stats import block_frequencies
    kern = _kernel(3, 0.2)
    n = 2 * 10 ** 5
    freqs = {}
    for label, sampler, seed in (("sequential", generate, 31),
                                 ("conversion", generate_by_conversion, 32)):
        src = CounterBitSource(seed)
        state = init_uniform(kern, src)
        seq = sampler(state, n, UniformRealSource(src))
        assert state.steps_emitted == n
        freqs[label] = block_frequencies(seq, 4)
    exact = exact_block_distribution(kern, StateDistribution.uniform(3), 0, 4)
    for stats in freqs.values():
        sigma = np.sqrt(exact * (1 - exact) / stats.windows)
        assert (np.abs(stats.frequencies - exact) <= 5 * sigma).all()


def test_fair_coin_stream_passes_battery():
    # pi = 0.5 collapses the kernel to the fair coin at every order
    from twofaced.stats import block_frequencies
    src = CounterBitSource(8)
    state = init_uniform(_kernel(4, 0.5), src)
    seq = generate(state, 10 ** 6, UniformRealSource(src))
    for m in range(1, 11):
        assert block_frequencies(seq, m).p_value > 1e-4


def test_block_frequencies_track_uniform_through_order():
    # order-8 run: every block length up to the order stays within 10%
    # relative of uniform
    from twofaced.stats import block_frequencies
    kern = _kernel(8, 0.2)
    src = CounterBitSource(9)
    seq = generate(init_uniform(kern, src), 10 ** 6, UniformRealSource(src))
    for m in range(1, 9):
        stats = block_frequencies(seq, m)
        assert stats.max_abs_deviation <= 0.10 * 2.0 ** -m


def test_entropy_staircase_exact():
    kern = _kernel(4, 0.1)
    for m in (1, 2, 3, 4):
        assert abs(exact_conditional_entropy(kern, m) - 1.0) <= 1e-12
    h5 = exact_conditional_entropy(kern, 5)
    assert abs(h5 - 0.4689955935892812) <= 1e-12
    assert abs(h5 - limit_entropy(0.1)) <= 1e-12
    # beyond order + 1 the value stays at the limit entropy
    assert abs(exact_conditional_entropy(kern, 7) - limit_entropy(0.1)) <= 1e-12


def test_entropy_fair_coin():
    for m in (1, 3, 6):
        assert exact_conditional_entropy(_kernel(4, 0.5), m) == pytest.approx(1.0, abs=1e-12)


def test_limit_entropy_values():
    assert limit_entropy(0.5) == 1.0
    assert abs(limit_entropy(0.11002786443835955) - 0.5) <= 1e-10
    assert limit_entropy(0.1) == pytest.approx(0.4689955935892812, abs=1e-15)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            limit_entropy(bad)


@given(st.integers(1, 6),
       st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
       st.integers(0, 8))
@settings(max_examples=30)
def test_uniform_blocks_property(k, pi, j):
    kern = _kernel(k, pi)
    for m in range(1, k + 1):
        law = exact_block_distribution(kern, StateDistribution.uniform(k), j, m)
        assert np.abs(law - 2.0 ** -m).max() <= 1e-12
