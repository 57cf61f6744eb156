"""The growing-order construction: XOR combination of kernel streams.

XOR-ing any stream with a stream whose k-blocks are exactly uniform
(`a ^ b` on two `BitSequence`s) yields a stream whose k-blocks are
exactly uniform.  `twice_two_faced` pushes the idea to every block
length: over a strictly increasing cut sequence n_1 < n_2 < ..., output
position i XORs the first m component streams, where m is the index of
the segment containing i (i <= n_1 uses one component, n_1 < i <= n_2
two, and so on).  With component j following an order-n_j kernel, every
block length is covered once the cuts pass it.

Components are instantiated lazily: a component whose segment starts at
or beyond the requested length is never built.

Cost: each component is sampled from position 0 up to the requested
length, not just over its own segment, because that is how the
construction defines it.  With `default_config` the orders double up
to about n, so about log2(n) components each emit n bits and the
combination costs Θ(n log n).  A component's k-bit window crosses to
integer form once, at `init_fixed`, in time linear in k.  From
`generator._SCAN_ORDER` up (896 at multiples of 8, 576 otherwise) the
sampler steps about k outputs per round of numpy calls, so those
components cost less per bit than the small ones.
"""
from __future__ import annotations

import operator
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bitseq import BitSequence
from .errors import ConfigurationError
from .generator import generate, init_uniform
from .kernels import KernelSpec, Variant
from .sources import CounterBitSource, UniformRealSource, mix64


class CutSequence(NamedTuple("CutSequence", [("cuts", tuple[int, ...])])):
    """Strictly increasing positive cut positions n_1 < n_2 < ..."""

    __slots__ = ()

    def __new__(cls, cuts: tuple[int, ...]):
        try:
            ints = tuple(operator.index(c) for c in cuts)
        except TypeError:
            raise ValueError(f"cuts must be integers, got {cuts!r}") from None
        if any(c < 1 for c in ints):
            raise ValueError("cuts must be positive")
        if any(b <= a for a, b in zip(ints, ints[1:])):
            raise ValueError("cuts must be strictly increasing")
        return super().__new__(cls, ints)

    def segment_starts(self, n: int) -> list[int]:
        """0-based start position of each component active within length n."""
        return [0] + [c for c in self.cuts if c < n]


class ComponentSpec(NamedTuple("ComponentSpec", [("kernel", KernelSpec), ("seed", int)])):
    """One component stream: its kernel and its own seed."""

    __slots__ = ()

    def __new__(cls, kernel: KernelSpec, seed: int):
        # Reject a bad seed here, not when first built, and keep it as an int.
        return super().__new__(cls, kernel, CounterBitSource(seed).seed)


class TwiceTwoFacedConfig(NamedTuple):
    cuts: CutSequence
    components: tuple[ComponentSpec, ...]


def component_stream(spec: ComponentSpec) -> Callable[[int], BitSequence]:
    """Factory producing the component's prefix of a requested length.

    Each call restarts the component from its seed: the first `order`
    source bits initialize the window uniformly, the rest drive sampling.
    """

    def build(n: int) -> BitSequence:
        source = CounterBitSource(spec.seed)
        state = init_uniform(spec.kernel, source)
        return generate(state, n, UniformRealSource(source))

    return build


def twice_two_faced(factories: Sequence[Callable[[int], BitSequence]], cuts: CutSequence,
                    n: int) -> BitSequence:
    """Combine component streams over the cut sequence up to length n."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    starts = cuts.segment_starts(n)
    if len(factories) < len(starts):
        raise ConfigurationError(
            f"{len(starts)} components required for length {n}, got {len(factories)}")
    acc = np.zeros(n, dtype=np.uint8)
    for factory, start in zip(factories, starts):
        acc[start:] ^= factory(n).array[start:]
    return BitSequence._wrap(acc)


def twice_two_faced_from_config(config: TwiceTwoFacedConfig, n: int) -> BitSequence:
    factories = [component_stream(c) for c in config.components]
    return twice_two_faced(factories, config.cuts, n)


def default_config(pi: float, seed: int, n: int) -> TwiceTwoFacedConfig:
    """Power-of-two cuts with matching component orders.

    Component j (1-based) has order 2^j; per-component seeds are derived
    from the base seed by mixing so the streams are independent.
    """
    CounterBitSource(seed)  # reject a base seed outside [0, 2^64), as ComponentSpec does
    cuts = []
    c = 2
    while c < n:
        cuts.append(c)
        c *= 2
    cuts.append(c)
    components = tuple(
        ComponentSpec(KernelSpec(Variant.PLAIN, cut, pi), mix64(seed ^ mix64(j + 1)))
        for j, cut in enumerate(cuts))
    return TwiceTwoFacedConfig(CutSequence(tuple(cuts)), components)


def _value(convert, name: str, text: str):
    """convert(text), or a ValueError that names the field."""
    try:
        return convert(text)
    except ValueError:
        expected = {int: "a decimal integer", float: "a number"}.get(
            convert, "a valid Variant (plain or bar)")
        raise ValueError(f"{name} {text!r} is not {expected}") from None


def parse_config(text: str) -> TwiceTwoFacedConfig:
    """Parse the text config format: lines ``cut <n>`` and
    ``component order=<k> pi=<float> seed=<u64> [variant=plain|bar]``;
    blank lines and ``#`` comments are ignored."""
    cuts: list[int] = []
    components: list[ComponentSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "cut":
                if len(fields) != 2:
                    raise ValueError(f"cut takes one position, got {len(fields) - 1}")
                cuts.append(_value(int, "cut", fields[1]))
                continue
            if fields[0] == "component":
                bare = [f for f in fields[1:] if "=" not in f]
                if bare:
                    raise ValueError(f"component field {bare[0]!r} is not key=value")
                kv = dict(f.split("=", 1) for f in fields[1:])
                if len(kv) < len(fields) - 1:
                    raise ValueError(f"repeated key in {' '.join(fields[1:])!r}")
                variant = kv.pop("variant", "plain")
                if set(kv) != {"order", "pi", "seed"}:
                    raise ValueError(f"expected order=, pi=, seed=, got {sorted(kv)}")
                order, pi, seed = (_value(convert, name, kv[name]) for convert, name in (
                    (int, "order"), (float, "pi"), (int, "seed")))
                components.append(ComponentSpec(
                    KernelSpec(_value(Variant, "variant", variant), order, pi), seed))
                continue
            raise ValueError(f"unrecognized directive {fields[0]!r}")
        except (ValueError, KeyError) as exc:
            raise ConfigurationError(f"config line {lineno}: {exc}") from exc
    if not components:
        raise ConfigurationError("config defines no components")
    try:
        cut_seq = CutSequence(tuple(cuts))
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    return TwiceTwoFacedConfig(cut_seq, tuple(components))


def render_config(config: TwiceTwoFacedConfig) -> str:
    lines = [f"cut {c}" for c in config.cuts.cuts]
    lines += [f"component order={c.kernel.order} pi={c.kernel.pi!r} seed={c.seed}"
              + (" variant=bar" if c.kernel.variant is Variant.BAR else "")
              for c in config.components]
    return "\n".join(lines) + "\n"


def load_config(path) -> TwiceTwoFacedConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
