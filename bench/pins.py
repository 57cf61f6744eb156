"""Pinned digests: the benchmark's proof that outputs stay bit-identical.

`digests.json` holds the sha256 of every stream each workload emits at the
default and the held-out seed, and one digest per layer of the output of
its public functions at pinned small inputs.  `run.py` checks the layer
digests on every run and the stream digests whenever the seed is pinned.

    python3 bench/pins.py   # print the digests of this tree

Printing does not rewrite `digests.json`: the pins are changed only by a
change that alters output bits on purpose and says so.
"""
from __future__ import annotations

import hashlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads

SEED = 9


def _h(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def layer_digests() -> dict[str, str]:
    """One digest per layer, of its public functions' output at SEED."""
    from twofaced import (bitseq, cli, combine, expander, generator, kernels,
                          sources, stats)

    # The package re-exports a function named `transform` over the module.
    transform = importlib.import_module("twofaced.transform")

    spec = kernels.KernelSpec(kernels.Variant.PLAIN, 8, 0.2)
    src = sources.CounterBitSource(SEED)
    state = generator.init_uniform(spec, src)
    stream = generator.generate(state, 4096, sources.UniformRealSource(src))
    table = kernels.kernel_table(kernels.KernelSpec(kernels.Variant.BAR, 10, 0.3))
    v = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    seed_bits = bitseq.BitSequence.from_hex("d5ec8ef8ec8f6d9fd2f21115bb30e418")
    ladder = combine.twice_two_faced_from_config(
        combine.default_config(0.2, SEED, 4096), 4096)
    out = io.BytesIO()
    code = cli.run(["gen", "--order", "16", "--pi", "0.3", "--length", "4096",
                    "--seed", str(SEED), "--format", "hex"],
                   stdin=io.BytesIO(), stdout=out, stderr=io.StringIO())
    return {
        "sources": _h(sources.CounterBitSource(SEED).bits(4096).tobytes(),
                      sources.UniformRealSource.from_seed(SEED).reals(512).tobytes()),
        "generator": _h(stream.to_packed(), state.context_bits()),
        "kernels": _h(table.p0.tobytes(), table.p1.tobytes(),
                      kernels.cond_prob(spec, 1, "01101001")),
        "transform": _h(transform.transform(stream, v).to_packed(),
                        transform.inverse_transform(stream, v).to_packed()),
        "combine": _h(ladder.to_packed()),
        "stats": _h(*(stats.block_frequencies(stream, m).counts.tobytes()
                      for m in range(1, 10))),
        "expander": _h(
            expander.expand(seed_bits, expander.ExpanderConfig(16, 4096)).to_packed(),
            expander.bernoulli_encode(stream, 0.2).to_packed()),
        "bitseq": _h(*(bitseq.encode_stream(stream, fmt) for fmt in bitseq.FORMATS)),
        "cli": _h(code, out.getvalue()),
    }


def stream_digests(seeds) -> dict[str, dict[str, str]]:
    """Digest of each workload's stream at each seed, from the reference."""
    result = {}
    workloads.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.WORK_ROOT) as tmp:
        for seed in seeds:
            result[str(seed)] = {name: workloads.make_plan(name, seed, Path(tmp)).stream_sha256
                                 for name in workloads.LENGTHS}
    return result


if __name__ == "__main__":
    sys.path.insert(0, str(workloads.ROOT / "src"))
    json.dump({"streams": stream_digests([workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED]),
               "layers": layer_digests()}, sys.stdout, indent=2, sort_keys=True)
    print()
