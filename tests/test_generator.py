import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (ReplayRealSource, StateDistribution,
                       chain_conditional_entropy, cond_prob_recursive,
                       exact_block_distribution, generate_by_conversion,
                       propagate)
from twofaced import generator
from twofaced.bitseq import BitSequence
from twofaced.errors import CapacityError, SourceExhaustedError
from twofaced.generator import (GeneratorState, _generate_steps,
                                exact_conditional_entropy, generate,
                                init_fixed, init_uniform, limit_entropy)
from twofaced.kernels import KernelSpec, Variant
from twofaced.sources import (CounterBitSource, OSBitSource, ReplayBitSource,
                              UniformRealSource)
from twofaced.stats import chi_square_pvalue


def _kernel(k=2, pi=0.2, variant=Variant.PLAIN):
    return KernelSpec(variant, k, pi)


def test_init_uniform_copies_source_bits():
    state = init_uniform(_kernel(3), ReplayBitSource(BitSequence("101").to_packed(), 3))
    assert state.context_bits() == (1, 0, 1)
    state = init_uniform(_kernel(1), ReplayBitSource(BitSequence("0").to_packed(), 1))
    assert state.context_bits() == (0,)


def test_init_uniform_source_exhaustion():
    with pytest.raises(SourceExhaustedError):
        init_uniform(_kernel(3), ReplayBitSource(BitSequence("10").to_packed(), 2))


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
        counts[int.from_bytes(init_uniform(_kernel(k), src).window, "big")] += 1
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


@pytest.mark.parametrize("order", [1, 2, 5, 8, 9])
def test_generate_matches_repeated_next_bit(order):
    # generate against a per-step loop on the same draws: emit 0 iff the
    # draw is below P(0 | window) from the kernel's literal recursion, at
    # orders below 8 and at 8 and 9, a window aligned to bytes and one not.
    for variant in Variant:
        spec = _kernel(order, 0.2, variant)
        src_a = CounterBitSource(3)
        state_a = init_uniform(spec, src_a)
        whole = generate(state_a, 400, UniformRealSource(src_a))

        src_b = CounterBitSource(3)
        window = list(init_uniform(spec, src_b).context_bits())
        single = []
        for u in UniformRealSource(src_b).reals(400):
            bit = 0 if u < cond_prob_recursive(spec, 0, window[-order:]) else 1
            single.append(bit)
            window.append(bit)
        assert list(whole) == single
        assert state_a.context_bits() == tuple(window[-order:])


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
        h.update(str(int.from_bytes(state.window, "big")).encode())
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


@pytest.mark.parametrize("order", [21, 24])
def test_exact_operations_refuse_large_orders_before_allocating(order):
    # 2^24 float states would take 128 MiB; the cap must fire first
    calls = (lambda: chain_conditional_entropy(_kernel(order, 0.2), 2),
             lambda: StateDistribution.uniform(order),
             lambda: StateDistribution.point_mass(order, "0" * order))
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="exact-computation cap 20"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize("order", [1, 2, 3, 4, 7, 8, 9, 16, 601])
def test_sampler_steps_peak_bytes_per_bit(order):
    # the output takes 1 B/bit and the packed bytes and index about 1.5; an
    # s-bit chunk per byte took about 5 at order 1, and a padded 8-bit row
    # per chunk would take 12
    n = 10 ** 5
    state = init_uniform(_kernel(order), CounterBitSource(5))
    ge_pi, ge_q = UniformRealSource(CounterBitSource(9)).at_least(n, (0.2, 0.8))
    _generate_steps(state, ge_pi[:1], ge_q[:1])  # the step tables are built once
    tracemalloc.start()
    try:
        _generate_steps(state, ge_pi, ge_q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * n


# sha256 of each step table, as built by eight broadcast steps over all
# 2^17 entries: a cheaper build must give the same bytes
_BYTE_STEPS_DIGESTS = {
    1: "6694bbe1d415449400901576490023b14f325be11c9378a6dfbb446b872d753b",
    2: "af9e31415e06e2a6786f9db057dfff72dd1bb485fff7cf8a8dd1dceb68b7c045",
    3: "d7a0f885e8658510e4afb23e6f20af7c332cd6b61686b3096cca2ca687432e09",
    4: "c7d07fb34d06191f5f5b057effff6c8ff76a6f7f025fd1c285b79e5811a83968",
    5: "be2bb842a4c0b2abf106d551827d63d3f01118b32ee3e20d2ce9dfc113a5520a",
    6: "90724b69016092eaa3a2d84e70f2ad06acf203904b35e90d55e77b8ff7a8a648",
    7: "272ce1b9781835fc6ce3f5dfa6405f84860ab03b5d7a475a6d358d24898db5ab",
    8: "e207d800077dbdf50b5d2f812a56cddf8d569358edca7e9428b4c474fa71a3a9",
}
_WIDE_STEPS_DIGEST = "8ea89760e9640853091c367e9367a4daea12dc7a858d3d86113f5f242db9a856"


def _tables_digest(*tables):
    h = hashlib.sha256()
    for t in tables:
        h.update(t)
    return h.hexdigest()


def test_step_tables_match_pins():
    for s, want in _BYTE_STEPS_DIGESTS.items():
        masked, carry = generator._byte_steps(s)
        assert _tables_digest(masked, np.asarray(carry, "<u2")) == want, s
    # the digest covers masked bytes, final letters, shifted letters and
    # resets; the block scan reads the last two as one array and d != 0
    letters = np.asarray(generator._wide_steps(), "<u2")
    final = (letters >> 8).astype(np.uint8)
    resets = np.arange(1 << 17) >= 512
    assert _tables_digest(generator._byte_steps(8)[0], final, letters,
                          resets) == _WIDE_STEPS_DIGEST


def test_a_wide_byte_resets_the_letter_iff_a_d_bit_is_set():
    # at s = 8 no m feeds back within the byte, so only a step with d = 1
    # makes its final letter forget the entering one; below 8 an m does feed
    # back, and the entering letter can outlive such a step
    for s in range(1, 9):
        carry = np.frombuffer(generator._byte_steps(s)[1], np.uint16)
        final = (carry >> 8).reshape(256, 2, 256)  # by d, entering letter, x
        forgets = final[:, 0] == final[:, 1]
        assert not forgets[0].any(), s
        assert forgets[1:].all() == (s == 8), s


@given(st.integers(8, 3000).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 3 * k))),
       st.sampled_from([0.2, 0.77]), st.sampled_from(Variant), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_block_scan_matches_table_loop(order_and_n, pi, variant, seed):
    # the table loop is correct at every order, so it is the scan's reference:
    # same draws, same start, as many blocks as 3k outputs make
    order, n = order_and_n
    kernel = KernelSpec(variant, order, pi)
    window = init_uniform(kernel, CounterBitSource(seed)).window
    ge_pi, ge_q = UniformRealSource(CounterBitSource(seed + 1)).at_least(n, (pi, 1 - pi))
    runs = []
    for scan_order in (order, order + 1):  # the block scan, then the table loop
        state = GeneratorState(kernel, window)
        with mock.patch.object(generator, "_SCAN_ORDER", (scan_order, scan_order)):
            runs.append((_generate_steps(state, ge_pi, ge_q), int.from_bytes(state.window, "big")))
    (scanned, scan_context), (looped, loop_context) = runs
    assert np.array_equal(scanned, looped)
    assert scan_context == loop_context


def test_init_uniform_peak_bytes_per_window_bit():
    # the drawn window (1 B/bit) and the packed bytes; padding the bits to
    # whole bytes by a concatenate, and copying the uint8 window in
    # as_bit_array, each took another 1 B/bit
    order = 10 ** 7 + 3
    tracemalloc.start()
    try:
        init_uniform(_kernel(order), CounterBitSource(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * order


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
        assert np.abs(stats.counts / stats.windows - exact).max() <= (5 * sigma).max()


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
        freqs[label] = block_frequencies(seq, 4)
    exact = exact_block_distribution(kern, StateDistribution.uniform(3), 0, 4)
    for stats in freqs.values():
        sigma = np.sqrt(exact * (1 - exact) / stats.windows)
        assert (np.abs(stats.counts / stats.windows - exact) <= 5 * sigma).all()


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


def test_closed_form_entropy_matches_chain():
    # the closed form against the chain wherever the chain runs, and at
    # orders far past its cap, where the closed form needs nothing built
    worst = 0.0
    for variant in Variant:
        for k in range(1, 13):
            for pi in (0.1, 0.2, 0.5, 0.77, 1e-9, 0.999):
                kern = KernelSpec(variant, k, pi)
                for m in range(1, min(k + 8, 24) + 1):
                    worst = max(worst, abs(exact_conditional_entropy(kern, m)
                                           - chain_conditional_entropy(kern, m)))
    assert worst <= 1e-15
    for k in (1000, 1 << 17):
        kern = _kernel(k, 0.2)
        assert [exact_conditional_entropy(kern, m) for m in (1, k)] == [1.0, 1.0]
        for m in (k + 1, k + 8, 2 * k):
            assert exact_conditional_entropy(kern, m) == limit_entropy(0.2)


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


def _exact_chain_digest():
    # one sha256 over every exact law on a grid: block laws at several
    # offsets and lengths up to order + 8, propagated state laws, and the
    # conditional entropies, from uniform and point-mass starts
    h = hashlib.sha256()
    for variant in Variant:
        for k in range(1, 11):
            for pi in (0.1, 0.2, 0.5, 0.77, 1e-9):
                kern = KernelSpec(variant, k, pi)
                starts = (StateDistribution.uniform(k),
                          StateDistribution.point_mass(k, ("10" * k)[:k]))
                for start in starts:
                    for offset in (0, 1, 3, 7):
                        for m in range(1, k + 9):
                            h.update(exact_block_distribution(
                                kern, start, offset, m).tobytes())
                        h.update(propagate(kern, start, offset).probs.tobytes())
                for m in range(1, k + 9):
                    h.update(repr(chain_conditional_entropy(kern, m)).encode())
    return h.hexdigest()


def test_exact_chain_golden_digest():
    assert _exact_chain_digest() == (
        "470ef2324c2a0e7b1bd8c3ef61fa9ab0063db99c604b7cfa8e2533b8193024f7")


@pytest.mark.parametrize("m", [25, 28])
def test_exact_windows_refuse_long_blocks_before_allocating(m):
    # order+8 would allow m = 28, a 2 GiB law at 2^28 windows; the
    # 24-bit block cap fires first, after only the 8 MiB uniform start
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"block length {m} exceeds cap"):
            chain_conditional_entropy(_kernel(20, 0.2), m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20


def test_zero_length_draws_leave_source_and_state_alone():
    src, fresh = CounterBitSource(9), CounterBitSource(9)
    src.bits(5), fresh.bits(5)  # unaligned within the first 64-bit block
    bits = src.bits(0)
    assert bits.dtype == np.uint8 and bits.size == 0
    reals = UniformRealSource(src).reals(0)
    assert reals.dtype == np.float64 and reals.size == 0
    assert OSBitSource().bits(0).dtype == np.uint8
    state = init_uniform(_kernel(3), src)
    context = int.from_bytes(state.window, "big")
    out = generate(state, 0, UniformRealSource(src))
    assert len(out) == 0 and out.array.dtype == np.uint8
    assert int.from_bytes(state.window, "big") == context
    fresh.bits(3)
    assert np.array_equal(src.bits(100), fresh.bits(100))


# Golden pins at orders on both sides of 8 and up to 4096: one sha256 per
# order over both variants and pi 0.2, 0.77 and 0.5, each 100,000 bits from
# a uniform start at seed 9 followed by the final window.  Computed before
# the draws were compared as splitmix64 words and the sampler stepped a
# byte at a time; orders 2 to 6, before every order stepped min(order, 8)
# bits per table lookup; orders 1023 to 10,007, before large orders stepped
# a block of outputs at a time; orders 601, 801 and 1001, before orders
# that are not a multiple of 8 took the block scan below 1024.
_CHUNKS = (1, 65535, 7, 34457)
_ORDER_DIGESTS = {
    1: "fc00882554740ab3e0e9cc94932adfe3f7c72bd8565b0b96c29b1a4baeb27d81",
    2: "ded8d9299c316bd6682ab92c8e5ec7935d131a4bf5c8ddbcdb9d11eb7a66d7fd",
    3: "2c5cb5fb20ff12f866f627535a3cc44b75316487bb51cd0aece877467ccc77be",
    4: "f4729a308abdfc719732c505a6e537f1f5c4131a8ffe3ee3f8f53f9a2a72a3ea",
    5: "9081ee21da4b5dd6eca287c20abf7096d2780d3ead210ed4b6f108d69cd84211",
    6: "7a65765e4f3d584d8d48b9a15b06bab88f52283a189fbe9661665ebb90023b26",
    7: "da0bfe9157639e549efca7017dfb4e09bab3a1dfa8f59f784012de41ac9c627f",
    8: "69c565049ba7f008cdc0e25024f5bf18c735499e25a510484a6c3f75579a587d",
    9: "c84e4958494c80e8cbbc47b3d2d5d1a93c4c70733d5d4b9695aed9c9d3a2ee13",
    13: "61596c95c675533e60527263c615ec4c80d030438ea7c7c8afb1bcec1b686c13",
    256: "0ad948ed1e0c29e434b0e421d7a310789127f7cc24db13e2492bce92cab486b2",
    601: "ee23f4426a5652c9e9eb6e4ee1e8d14e9ebf5cb9f80c0c6db8c9ac8609b864af",
    801: "d36818ea2fe4e377c714fe31f41bf4a1318dc2b420a1ca44d8fbbb0adb62c0b8",
    1000: "c8a1f402a9943d909144eb01ae6c8389d595b4976d26e97ab9809b70ec5e90b1",
    1001: "87f0691254717388e8a142e8efe73f08a83ceec1acd3fbf5b8b72015091e483d",
    1023: "e1e0c01082ba6cf29f5cf609d8b84565f961946f9fa8ef527f8b52c8427f311e",
    1024: "dbe98cf8fa39874d3d784c940a88acdfbe0a572017ce64b4d4e498d9625d9882",
    2047: "0c5cb524e3b0a09122b2a271ccafaf32169428c4f4c4c3989b9d9683b6178cc1",
    2048: "625523de5a288b2f76cc215234112b39d29a09de357138c99c49460427d062e6",
    2049: "fb38067f614c53fd299b8f969ea01098f79327fb3c361751e43d827f56afb3de",
    4096: "c47bafd6ba0e0283e333145eb116edc35aa4387380cf50d387c8cd3eeb7bd16c",
    10007: "3072dc66b72a7bb8c74344a56ae3c915b63d4010f827f76affebbee50232c595",
}


def _pinned_run(variant, order, pi, chunks):
    src = CounterBitSource(9)
    state = init_uniform(KernelSpec(variant, order, pi), src)
    pieces = [generate(state, c, UniformRealSource(src)).array for c in chunks]
    return np.concatenate(pieces), int.from_bytes(state.window, "big"), src.bits(64)


@pytest.mark.parametrize("order", sorted(_ORDER_DIGESTS))
def test_generate_golden_digests_by_order(order):
    h = hashlib.sha256()
    for variant in Variant:
        for pi in (0.2, 0.77, 0.5):
            out, context, after = _pinned_run(variant, order, pi, (sum(_CHUNKS),))
            chunked = _pinned_run(variant, order, pi, _CHUNKS)
            assert np.array_equal(chunked[0], out) and chunked[1] == context
            assert np.array_equal(chunked[2], after)  # same source position
            h.update(np.packbits(out).tobytes())
            h.update(str(context).encode())
    assert h.hexdigest() == _ORDER_DIGESTS[order]


# Multi-pass pins: 3P + 12,345 bits at pi 0.2 from seed 9, with P = 2^15 the
# draws `generate` takes per pass, whole and in chunks that cross the pass
# boundaries.  One sha256 per order over both variants of the packed output,
# the final window and the next 64 source bits.  Computed while `generate`
# still drew the whole length at once; 2^17 - 3, whose leaving bytes straddle
# two history bytes, before large orders stepped a block at a time.
_PASS = 1 << 15
_PASS_CHUNKS = (1, _PASS - 1, _PASS + 7, _PASS + 12338)  # 3P + 12,345 in all
_MULTI_PASS_DIGESTS = {
    1: "2b74b411f43f111fe7f7402998a2beae2b90cea7a127a3e7f54298025e6bb375",
    8: "04f547884902584c1b5296dbbb74846ea5eed50b752e1e226b663a2a9871df95",
    13: "18654e9e781e618a724323f4e0ce582d447bfc0d13e4dc795f3e6b3c201ce389",
    (1 << 17) - 3: "f4d5af666f43795e8ed9b0b84bb879b9c986a399538e84275cae1d89ba8cae8d",
    1 << 17: "4057cd9295ccfbcea3d2974baec566a2e516e6e054632a5ac5eeee1c82daf961",
}


@pytest.mark.parametrize("order", sorted(_MULTI_PASS_DIGESTS))
def test_generate_golden_digests_across_passes(order):
    h = hashlib.sha256()
    for variant in Variant:
        out, context, after = _pinned_run(variant, order, 0.2, (sum(_PASS_CHUNKS),))
        chunked = _pinned_run(variant, order, 0.2, _PASS_CHUNKS)
        assert np.array_equal(chunked[0], out) and chunked[1] == context
        assert np.array_equal(chunked[2], after)
        h.update(np.packbits(out).tobytes())
        h.update(context.to_bytes(-(-order // 8), "big"))  # str() refuses 2^17 bits
        h.update(np.packbits(after).tobytes())
    assert h.hexdigest() == _MULTI_PASS_DIGESTS[order]


@pytest.mark.parametrize("order", [*range(1, 18), 63, 64, 65, 601, 1024])
def test_generate_matches_literal_kernel_steps(order):
    # generate against the kernel rule stepped one bit at a time on the same
    # `at_least` draws: emit ge_pi where the pi-letter is 0 and ge_q where it
    # is 1, the letter being the window's parity, XOR 1 for BAR.  In one call
    # and in calls of 1, 7 and P + 3 bits, which cross a pass boundary.
    chunks = (1, 7, _PASS + 3)
    n = sum(chunks)
    for variant in Variant:
        for pi in (0.2, 0.77):
            spec = KernelSpec(variant, order, pi)
            src = CounterBitSource(order)
            window = int.from_bytes(init_uniform(spec, src).window, "big")
            ge_pi, ge_q = UniformRealSource(src).at_least(n, (pi, 1 - pi))
            want = np.empty(n, np.uint8)
            for t in range(n):
                letter = window.bit_count() & 1 ^ (variant is Variant.BAR)
                want[t] = bit = int(ge_q[t] if letter else ge_pi[t])
                window = (window << 1 | bit) & ((1 << order) - 1)
            for calls in ((n,), chunks):
                src = CounterBitSource(order)
                state = init_uniform(spec, src)
                got = [generate(state, c, UniformRealSource(src)).array for c in calls]
                assert np.array_equal(np.concatenate(got), want), (variant, pi, calls)
                assert int.from_bytes(state.window, "big") == window


@pytest.mark.parametrize("order", [1, 8, 13, 4096, (1 << 17) - 3])
def test_generate_peak_bytes_per_bit(order):
    # The output takes 1 B/bit.  Past it, memory is bounded by the pass size
    # P: the buffers the source keeps, about 38 B per draw of a pass, and a
    # pass's draws and steps, about 4 more, plus about 1 B per window bit.
    # Drawing all n at once would hold 53 source bits each.
    n = 4 * 10 ** 5
    src = CounterBitSource(5)
    state = init_uniform(_kernel(order), src)
    generate(state, 1, UniformRealSource(src))  # the step tables are built once
    tracemalloc.start()
    try:
        generate(state, n, UniformRealSource(src))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - n < 44 * generator._PASS_DRAWS + 2 * order
