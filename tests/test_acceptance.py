"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary
line per criterion.
"""
import time

import numpy as np

from twofaced._reference import cond_prob_recursive
from twofaced.bitseq import BitSequence
from twofaced.combine import CutSequence, twice_two_faced
from twofaced.expander import (ExpanderConfig, bernoulli_decode,
                               bernoulli_encode, entropy_inverse, expand)
from twofaced.generator import (StateDistribution, exact_block_distribution,
                                exact_conditional_entropy, generate,
                                init_uniform, limit_entropy, propagate)
from twofaced.kernels import KernelSpec, Variant, cond_prob, int_to_context
from twofaced.sources import CounterBitSource, UniformRealSource, next_bits
from twofaced.stats import block_frequencies, empirical_conditional_entropy
from twofaced.transform import transform


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_c01_conversion_reference_vector():
    start = time.perf_counter()
    out = transform("10010", "01")
    elapsed = time.perf_counter() - start
    _report(1, out == BitSequence("01110"),
            f"order-2 conversion of 10010 with init 01 -> {out.to_ascii01()} "
            f"in {elapsed * 1e3:.3f} ms")


def test_c02_closed_form_equals_recursion():
    start = time.perf_counter()
    checked = 0
    for k in range(1, 13):
        for variant in Variant:
            for pi in (0.2, 0.3):
                spec = KernelSpec(variant, k, pi)
                for u in range(1 << k):
                    ctx = int_to_context(u, k)
                    for bit in (0, 1):
                        if cond_prob(spec, bit, ctx) != cond_prob_recursive(spec, bit, ctx):
                            _report(2, False, f"mismatch at {variant} k={k} u={u} b={bit}")
                        checked += 1
    elapsed = time.perf_counter() - start
    _report(2, True, f"{checked} conditional probabilities identical in {elapsed:.2f} s")


def test_c03_uniform_is_stationary():
    worst = 0.0
    for k in range(1, 9):
        for pi in (0.1, 0.2, 0.5):
            for variant in Variant:
                kern = KernelSpec(variant, k, pi)
                out = propagate(kern, StateDistribution.uniform(k), 1)
                worst = max(worst, float(np.abs(out.probs - 2.0 ** -k).max()))
    _report(3, worst <= 1e-12,
            f"one-step propagation max-norm error {worst:.2e} (tolerance 1e-12)")


def test_c04_uniform_block_marginals():
    worst = 0.0
    for k in range(1, 9):
        for pi in (0.1, 0.2, 0.5):
            kern = KernelSpec(Variant.PLAIN, k, pi)
            uniform = StateDistribution.uniform(k)
            for j in range(17):
                for m in range(1, k + 1):
                    law = exact_block_distribution(kern, uniform, j, m)
                    worst = max(worst, float(np.abs(law - 2.0 ** -m).max()))
    _report(4, worst <= 1e-12,
            f"uniform-initial m-block laws, m <= k <= 8, offsets <= 16: "
            f"max deviation {worst:.2e}")


def test_c05_ergodic_convergence_from_point_masses():
    steps_needed = {}
    cap = 10 ** 4
    for k in range(1, 7):
        for pi in (0.1, 0.2):
            kern = KernelSpec(Variant.PLAIN, k, pi)
            worst_j = 0
            for state in range(1 << k):
                dist = StateDistribution.point_mass(k, int_to_context(state, k))
                j = 0
                while j < cap:
                    tv = 0.5 * float(np.abs(dist.probs - 2.0 ** -k).sum())
                    if tv < 1e-6:
                        break
                    dist = propagate(kern, dist, 1)
                    j += 1
                if j >= cap:
                    _report(5, False, f"no convergence within {cap} steps at "
                                      f"k={k} pi={pi} state={state}")
                worst_j = max(worst_j, j)
            steps_needed[(k, pi)] = worst_j
    detail = ", ".join(f"k={k} pi={pi}: J={j}" for (k, pi), j in steps_needed.items())
    _report(5, True, f"TV < 1e-6 reached from every point mass ({detail})")


def test_c06_entropy_staircase_exact_and_empirical():
    worst_exact = 0.0
    worst_emp = 0.0
    for k in range(1, 7):
        for pi in (0.1, 0.2, 0.5):
            kern = KernelSpec(Variant.PLAIN, k, pi)
            for m in range(1, k + 1):
                worst_exact = max(worst_exact,
                                  abs(exact_conditional_entropy(kern, m) - 1.0))
            h_step = exact_conditional_entropy(kern, k + 1)
            worst_exact = max(worst_exact, abs(h_step - limit_entropy(pi)))
            src = CounterBitSource(1000 + k)
            seq = generate(init_uniform(kern, src), 10 ** 6, UniformRealSource(src))
            worst_emp = max(
                worst_emp,
                abs(empirical_conditional_entropy(seq, k) - 1.0),
                abs(empirical_conditional_entropy(seq, k + 1) - limit_entropy(pi)))
    ok = worst_exact <= 1e-12 and worst_emp <= 0.01
    _report(6, ok, f"exact staircase error {worst_exact:.2e} (tol 1e-12), "
                   f"plug-in estimate error {worst_emp:.4f} (tol 0.01)")


def test_c07_xor_convolution_is_uniform():
    worst = 0.0
    for k in range(1, 5):
        size = 1 << k
        for pi in (0.1, 0.2, 0.5):
            kern = KernelSpec(Variant.PLAIN, k, pi)
            x_law = exact_block_distribution(kern, StateDistribution.uniform(k), 0, k)
            point = np.zeros(size)
            point[size - 1] = 1.0
            biased = np.ones(1)
            for _ in range(k):
                biased = np.concatenate([biased * 0.1, biased * 0.9])
            uniform = np.full(size, 1.0 / size)
            for y_law in (point, biased, uniform):
                z_law = np.zeros(size)
                for v in range(size):
                    for u in range(size):
                        z_law[u] += x_law[v] * y_law[u ^ v]
                worst = max(worst, float(np.abs(z_law - 1.0 / size).max()))
    _report(7, worst <= 1e-12,
            f"XOR with point-mass, biased-iid, and uniform laws: "
            f"max deviation from uniform {worst:.2e}")


def test_c08_growing_order_combination_exactly_uniform():
    # cuts (1, 2, 3), component orders (1, 2, 3): enumerate all joint
    # component outcomes, weight by their exact laws, and push each
    # through the combiner.
    n = 3
    pi = 0.2
    cuts = CutSequence((1, 2, 3))
    comp_laws = []
    for order in (1, 2, 3):
        kern = KernelSpec(Variant.PLAIN, order, pi)
        comp_laws.append(exact_block_distribution(
            kern, StateDistribution.uniform(order), 0, n))
    w_law = np.zeros(1 << n)
    outcomes = 0
    for a in range(1 << n):
        for b in range(1 << n):
            for c in range(1 << n):
                weight = comp_laws[0][a] * comp_laws[1][b] * comp_laws[2][c]
                seqs = [BitSequence(int_to_context(word, n)) for word in (a, b, c)]
                w = twice_two_faced([lambda m, s=s: s[:m] for s in seqs], cuts, n)
                idx = 0
                for bit in w:
                    idx = (idx << 1) | bit
                w_law[idx] += weight
                outcomes += 1
    worst = 0.0
    for length in (1, 2, 3):
        for off in range(n - length + 1):
            law = np.zeros(1 << length)
            for word in range(1 << n):
                sub = (word >> (n - off - length)) & ((1 << length) - 1)
                law[sub] += w_law[word]
            worst = max(worst, float(np.abs(law - 2.0 ** -length).max()))
    _report(8, worst <= 1e-12 and outcomes == 512,
            f"{outcomes} joint outcomes enumerated; all block laws of length "
            f"<= 3 deviate at most {worst:.2e} from uniform")


def test_c09_statistical_signature_at_order_8():
    kern = KernelSpec(Variant.PLAIN, 8, 0.2)
    src = CounterBitSource(9)
    seq = generate(init_uniform(kern, src), 10 ** 6, UniformRealSource(src))
    pvals = {m: block_frequencies(seq, m).p_value for m in range(1, 10)}
    accept = all(pvals[m] > 1e-4 for m in range(1, 9))
    reject = pvals[9] < 1e-6
    _report(9, accept and reject,
            f"10^6 bits, order 8, pi 0.2, seed 9: min p(m<=8)="
            f"{min(pvals[m] for m in range(1, 9)):.3g} > 1e-4, "
            f"p(9)={pvals[9]:.3g} < 1e-6")


def test_c10_seed_expander_contracts():
    # exact round trips at 10^5 symbols
    for pi, seed in ((0.01, 1), (0.1, 2), (0.3, 3), (0.5, 4)):
        draws = UniformRealSource.from_seed(seed).reals(10 ** 5)
        x = BitSequence((draws >= pi).astype(np.uint8))
        code = bernoulli_encode(x, pi)
        if bernoulli_decode(code, pi, len(x)) != x:
            _report(10, False, f"round trip failed at pi={pi}")
    # compression rate within [H - 0.01, H + 0.02]
    rate_ok = True
    for pi, seed in ((0.01, 1), (0.1, 2), (0.3, 3), (0.5, 4)):
        draws = UniformRealSource.from_seed(seed).reals(10 ** 5)
        x = BitSequence((draws >= pi).astype(np.uint8))
        rate = len(bernoulli_encode(x, pi)) / len(x)
        h = 1.0 if pi == 0.5 else limit_entropy(pi)
        rate_ok = rate_ok and (h - 0.01 <= rate <= h + 0.02)
    # entropy inversion on an h grid
    inv_err = max(abs(limit_entropy(entropy_inverse(i / 100.0)) - i / 100.0)
                  for i in range(1, 101))
    # full-entropy expansion is the conversion of the raw code bits
    seed_bits = next_bits(CounterBitSource(9), 68)
    config = ExpanderConfig(order=4, target_len=64)
    identity = expand(seed_bits, config) == transform(seed_bits[4:], seed_bits[:4])
    ok = rate_ok and inv_err <= 1e-12 and identity
    _report(10, ok,
            f"round trips exact at 10^5 symbols; rates within [H-0.01, H+0.02]; "
            f"entropy inversion max error {inv_err:.2e}; "
            f"full-entropy expansion bit-identical: {identity}")
