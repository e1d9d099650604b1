"""Host-speed reference: a fixed kernel timed alongside the workloads.

The development host is a VM on a shared machine whose speed shifts by
up to 1.8x over minutes.  Every run times this kernel between its
measurements (never inside them) and reports its timings scaled to the
kernel's speed on that host: a time ``t`` is reported as
``t * REFERENCE_S / median(probe times)``.  The kernel does not touch
the program, so a change to the program still moves the scaled figures
exactly as it moves the raw ones; only the host's own speed cancels.
The raw figures are printed and saved next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on the development host (2-CPU x86_64 VM, Python
# 3.11, numpy 2.4, OpenBLAS 0.3.31 on one thread) in an idle period.
REFERENCE_S = 3.3e-3

_SMALL = np.random.default_rng(0).random((48, 48))
_TALL = np.random.default_rng(1).random((4096, 27))
_FILTERS = np.random.default_rng(2).random((27, 8))


def probe() -> float:
    """Seconds for a fixed mix of interpreter, small-GEMM and sort work,
    the kinds of work the workloads spend their time in."""
    start = time.perf_counter()
    total = 0
    for i in range(12000):
        total += i * i
    for _ in range(100):
        (_SMALL @ _SMALL).sum()
    for _ in range(5):
        np.sort(_TALL @ _FILTERS, axis=0)
    return time.perf_counter() - start


def speed_factor(probes) -> float:
    """How much faster than the reference this run's host was (>1 faster)."""
    return REFERENCE_S / statistics.median(probes)
