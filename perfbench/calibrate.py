"""Machine-speed calibration for the benchmark's timings.

On a shared host the same code runs up to 1.8x slower while neighbours
load the machine, in phases lasting from seconds to over a minute, so
whole runs land in one phase or the other.  Every timing the benchmark
reports is therefore rescaled by a calibration kernel timed right
beside it:

    reported = measured * K_REF_MS / kernel_ms

The kernel is fixed code of the same kind as the program's hot path
(small numpy products and scalar math driven by the interpreter), so
both slow down together.  Reported times read as times on a machine
where the kernel takes K_REF_MS; the raw wall times go into the run
record beside them.
"""

from __future__ import annotations

import math
import time

import numpy as np

K_REF_MS = 1.0
PROBE_REPEATS = 3

_A = np.arange(81.0).reshape(9, 9) / 81.0


def kernel() -> float:
    s = 0.0
    for i in range(300):
        v = np.full(9, i * 1e-3)
        s += float(v @ _A @ v) + math.exp(-i * 1e-2)
    return s


def probe_ms() -> float:
    """Kernel time now, in ms: the fastest of a few back-to-back runs."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t)
    return best * 1e3


def scale(kernel_ms: float) -> float:
    """Factor that turns a time measured beside this kernel time into a reported one."""
    return K_REF_MS / kernel_ms
