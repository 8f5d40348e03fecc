"""A fixed reference kernel that measures how fast the machine runs now.

The machine the benchmark was defined on moves between fast and slow
phases that last from seconds to minutes: the same pure-Python filter
iteration took 1.3 s in one run and 2.1 s in the next, and set-up times
moved by the same factor. A run of a few tens of seconds usually sits in
one phase, so raw timings of separate runs spread by up to a third. The
runner therefore times this kernel before every iteration and scales its
timings by `REFERENCE_SECONDS / median(kernel time)`: the gated numbers
read as if the machine had run at its reference speed, and the raw ones
are printed next to them.

The kernel mixes the two kinds of work the workloads do: interpreted
Python over lists and strings (an edit-distance table, like the quality
filter) and float32 numpy GEMMs with elementwise ops (like the LSTM
layers). It never touches nliexpl, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the machine the benchmark was defined on (2-CPU
# x86_64 VM, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).
REFERENCE_SECONDS = 0.06

_A = "two dogs are running through a field of tall grass near the river bank"
_B = "a pair of dogs runs across the tall grass field close to a riverbank"


def _python_part() -> None:
    for _ in range(10):
        prev = list(range(len(_B) + 1))
        for i, ca in enumerate(_A, start=1):
            cur = [i] + [0] * len(_B)
            for j, cb in enumerate(_B, start=1):
                cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            prev = cur


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((64, 812)).astype(np.float32)
        self.w = rng.standard_normal((2048, 812)).astype(np.float32)

    def _numpy_part(self) -> None:
        for _ in range(8):
            gates = self.x @ self.w.T
            np.tanh(gates[:, :512]) * gates[:, 512:1024]

    def seconds(self) -> float:
        """Wall time of one pass of the kernel."""
        t0 = time.perf_counter()
        _python_part()
        self._numpy_part()
        return time.perf_counter() - t0
