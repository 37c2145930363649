"""The reference pass that job times are divided by (the ``ref`` unit).

One pass is a fixed kernel that calls no trajopt code: numpy operations on
256-element arrays between Python arithmetic, the mix of a trajectory step.
A host regime slows it as much as it slows an in-process job.

    python3 perfbench/reference.py

runs one pass in a fresh interpreter, as the CLI workload's reference does.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

ROUNDS = 6000  # about 0.08 s on a 2-vCPU Xeon VM


def kernel() -> float:
    rows = np.linspace(0.0, 1.0, 4 * 256).reshape(4, 256) ** 1.5
    acc = 0.0
    for i in range(ROUNDS):
        c = rows[i & 3] * rows[(i + 1) & 3] - 0.5 * rows[(i + 2) & 3]
        acc += float(c[int(np.argmin(c))]) + float(np.abs(c).sum())
        for k in range(8):
            acc = (acc + k * i) % 1000003.0
    return acc


def reference_s() -> float:
    """Wall time of one in-process pass."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


if __name__ == "__main__":
    kernel()
