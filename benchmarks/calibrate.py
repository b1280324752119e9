"""A fixed task, timed to track how fast the machine runs at the moment.

The task uses no specmul code: interpreter work plus a numpy sort, the two
kinds of work the workloads do.  A timing divided by ``slowdown()`` taken just
before it reads as if measured on the reference machine, so that the
machine's own speed drift cancels.
"""

from __future__ import annotations

import time

import numpy as np

# Time of the task on the reference machine (2-vCPU Xeon VM, Python 3.11,
# numpy 2.4).
CAL_REF_S = 0.04


def slowdown() -> float:
    """How many times slower than the reference the task ran just now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        acc += (i * 7) % 13
        table[i & 1023] = (acc, i)
    np.argsort(np.random.default_rng(0).integers(0, 1 << 40, 400_000))
    return (time.perf_counter() - t0) / CAL_REF_S
