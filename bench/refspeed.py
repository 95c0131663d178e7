"""Machine-speed reference for the benchmark's timings.

On a shared 2-vCPU Xeon VM the same code runs up to 1.7 times slower for
tens of seconds at a time, on both CPUs at once, so wall times of runs a
few minutes apart disagree by more than any useful bound. Each timed block
is therefore bracketed by a fixed reference loop that does not touch
spanner1d, and is reported in reference seconds: its wall time times
REF_LOOP_S over the loop's mean time before and after it. A change to the
program moves its blocks and not the loop.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

REF_LOOP_S = 0.5e-3  # the loop's time there in a fast phase, so reference seconds are close to seconds
_TO_SORT = np.random.default_rng(0).random(8192)


def ref_loop_seconds() -> float:
    """Fastest of three runs of the reference loop: interpreter, tuple hashing and a numpy sort."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(4000):
            x += i * i
        x += len({(i, i ^ 5) for i in range(2000)})
        np.sort(_TO_SORT)
        best = min(best, time.perf_counter() - t0)
    return best


@contextlib.contextmanager
def measured(out: list):
    """Append the block's (wall seconds, reference loop seconds around it) to out."""
    before = ref_loop_seconds()
    t0 = time.perf_counter()
    try:
        yield
    finally:
        wall = time.perf_counter() - t0
        out.append((wall, (before + ref_loop_seconds()) / 2))


def ref_seconds(pair) -> float:
    """A (wall seconds, reference loop seconds) pair in reference seconds."""
    wall, loop = pair
    return wall * REF_LOOP_S / loop


