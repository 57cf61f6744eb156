"""Low-entropy bit processes with exactly uniform short-block statistics.

The package provides the order-k kernel families and their exact
analysis (:mod:`.kernels`, :mod:`.generator`), the deterministic stream
conversion (:mod:`.transform`), XOR combination and the growing-order
construction (:mod:`.combine`), a block-frequency and entropy test
suite (:mod:`.stats`), seed expansion through an arithmetic decoder
(:mod:`.expander`), randomness-source abstractions (:mod:`.sources`),
and a composable CLI (:mod:`.cli`).  Import names from those modules;
the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
