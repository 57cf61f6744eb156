#!/usr/bin/env python3
"""Show the two faces of an order-k stream.

The order-m conditional entropy is exactly 1 bit for m <= k and drops to
the binary entropy of pi for every m > k.  Samples one stream, then
prints the exact h_m next to plug-in estimates, and the block-frequency
battery across block lengths: uniformity is accepted up to the order and
rejected just past it, even though the entropy rate is far below 1 bit.
"""
import argparse

from twofaced.generator import (exact_conditional_entropy, generate,
                                init_uniform, limit_entropy)
from twofaced.kernels import KernelSpec, Variant
from twofaced.sources import CounterBitSource, UniformRealSource
from twofaced.stats import analyze, empirical_conditional_entropy, report_text


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=8)
    ap.add_argument("--pi", type=float, default=0.2)
    ap.add_argument("--length", type=int, default=10 ** 6)
    ap.add_argument("--seed", type=int, default=9)
    ap.add_argument("--alpha", type=float, default=1e-4)
    ap.add_argument("--max-m", type=int, default=None)
    args = ap.parse_args()

    kernel = KernelSpec(Variant.PLAIN, args.order, args.pi)
    max_m = args.max_m or args.order + 1
    source = CounterBitSource(args.seed)
    state = init_uniform(kernel, source)
    seq = generate(state, args.length, UniformRealSource(source))

    print(f"order={args.order} pi={args.pi} H(pi)={limit_entropy(args.pi):.6f} "
          f"sample={args.length} bits seed={args.seed}")
    print(f"{'m':>3} {'exact h_m':>12} {'estimate':>12} {'error':>10}")
    for m in range(1, max_m + 1):
        exact = exact_conditional_entropy(kernel, m)
        est = empirical_conditional_entropy(seq, m)
        print(f"{m:>3} {exact:>12.6f} {est:>12.6f} {abs(est - exact):>10.2e}")
    print(f"\nblock-frequency battery (alpha = {args.alpha:g}):")
    print(report_text(analyze(seq, max_m), args.alpha), end="")


if __name__ == "__main__":
    main()
