#!/usr/bin/env python3
"""Aggregate block statistics over many seed expansions.

Each expansion stretches a fresh short seed into a long stream at a very
low entropy rate.  Any single output is marginally uniform on short
blocks but internally dependent (it only carries |seed| bits of
randomness), so pooled single-run tests reject; the meaningful
measurement is the aggregated block-frequency table over many seeds,
which converges to uniform.  The demo prints that table, plus one
full-entropy run for contrast, where a single stream already passes.
"""
import argparse

import numpy as np

from twofaced.expander import ExpanderConfig, entropy_inverse, expand
from twofaced.sources import CounterBitSource
from twofaced.stats import analyze, block_frequencies, report_text


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=300)
    ap.add_argument("--seed-bits", type=int, default=128)
    ap.add_argument("--order", type=int, default=16)
    ap.add_argument("--length", type=int, default=4096)
    ap.add_argument("--seed", type=int, default=2024,
                    help="source seed for the expansion-seed list")
    ap.add_argument("--max-block", type=int, default=6)
    args = ap.parse_args()

    h = (args.seed_bits - args.order) / args.length
    print(f"{args.runs} expansions: {args.seed_bits}-bit seeds -> "
          f"{args.length} bits at order {args.order}")
    print(f"rate h = {h:.6f}, matched bias pi = {entropy_inverse(h):.8f}")

    config = ExpanderConfig(order=args.order, target_len=args.length)
    counts = {m: np.zeros(1 << m, dtype=np.int64)
              for m in range(1, args.max_block + 1)}
    windows = {m: 0 for m in counts}
    source = CounterBitSource(args.seed)
    for _ in range(args.runs):
        out = expand(source.bits(args.seed_bits), config)
        for m in counts:
            stats = block_frequencies(out, m)
            counts[m] += stats.counts
            windows[m] += stats.windows

    print("\naggregated deviation from uniform block frequencies:")
    print(f"{'m':>3} {'windows':>10} {'max relative deviation':>24}")
    for m in counts:
        reldev = float(np.abs(counts[m] / windows[m] - 2.0 ** -m).max()) * (1 << m)
        print(f"{m:>3} {windows[m]:>10} {reldev:>24.4f}")

    full = args.order + args.length  # h = 1: seed as long as the output
    seed = CounterBitSource(args.seed + 1).bits(full)
    out = expand(seed, ExpanderConfig(order=args.order, target_len=args.length))
    print(f"\nfull-entropy contrast (h = 1, one {args.length}-bit run):")
    print(report_text(analyze(out, args.max_block)), end="")


if __name__ == "__main__":
    main()
