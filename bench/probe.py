"""CPU speed probe: a fixed unit of work run beside the pipelines.

    python3 bench/probe.py

The CPUs of a shared host change speed by up to 1.7x within seconds, as
other tenants come and go, so raw CPU and wall times of the same pipeline
spread by 20-30% from run to run.  `run.py` pins this probe and every
pipeline process to the same CPU.  The probe runs at the lowest priority,
so it takes about 1.5% of that CPU while a pipeline runs, in slices a few
milliseconds apart, and it sees the speed the pipeline sees.  The rate at
which it completes units, per second of its own CPU time, is that speed.

Each byte read on stdin is answered, once the current unit is done, with
the line "<units completed> <CPU seconds used>".  End of input ends it.
"""
from __future__ import annotations

import os
import select
import sys
import time

import numpy as np

_DRAWS = np.random.default_rng(1).random(32768)


def unit() -> None:
    """About a millisecond of the kinds of work the package does: an
    interpreter loop over a dict, big-integer shifts, a list of bits, and
    numpy passes over an array."""
    counts: dict[int, int] = {}
    for i in range(1700):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + (i & 3)
    value = 0
    for i in range(1100):
        value = (value << 1) | (i & 1)
    bits = [(i >> 3) & 1 for i in range(4000)]
    tuple(bits[::2])
    np.sort(_DRAWS)
    (_DRAWS * 1.5 + 2.0).sum()


def main() -> int:
    os.nice(19)
    units = 0
    while True:
        unit()
        units += 1
        if select.select([0], [], [], 0)[0]:
            if not os.read(0, 1):
                return 0
            os.write(1, f"{units} {time.process_time()!r}\n".encode("ascii"))


if __name__ == "__main__":
    sys.exit(main())
