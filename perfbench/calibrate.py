"""Reference kernel that rescales measured times to one machine speed.

On a small shared machine the speed of a core changes by up to 2x within
seconds and drifts over minutes, which no amount of repetition inside one
run averages away. The benchmark therefore runs a fixed reference kernel
between operations and scales each operation's time by the reference
kernel's nominal time over its measured time next to that operation. A
change to the package cannot change the kernel, so the scaled time moves
only with the package's own cost.

The kernel mimics the package's inner loops at the workload's matrix size d:
build a rotation with fancy indexing, two d x d matmuls, and the elementwise
and Python-level work of one Jacobi round. At d=8 that is mostly interpreter
and numpy call overhead, at d=128 and d=256 mostly BLAS, as in the workloads.
"""

from __future__ import annotations

import time

import numpy as np


class Calibrator:
    """Runs the reference kernel on demand and keeps each run's seconds."""

    def __init__(self, d: int, reps: int, nominal_s: float):
        rng = np.random.default_rng(12345)
        a = rng.normal(size=(d, d))
        self._a = (a + a.T) / (2.0 * np.sqrt(d))
        self._ii = np.arange(0, d - 1, 2)
        self._jj = self._ii + 1
        self._reps = reps
        self.nominal_s = nominal_s
        self.samples: list = []

    def _kernel(self) -> float:
        ii, jj = self._ii, self._jj
        x = self._a
        acc = 0.0
        for _ in range(self._reps):
            rot = np.eye(x.shape[0])
            rot[ii, ii] = 0.8
            rot[jj, jj] = 0.8
            rot[ii, jj] = 0.6
            rot[jj, ii] = -0.6
            x = rot.T @ x @ rot
            off = x[ii, jj]
            t = np.where(off >= 0, 1.0, -1.0) / (np.abs(off) + np.hypot(off, 1.0))
            acc += float(t.sum()) + sum(0.5 * k for k in range(20))
            np.argsort(-np.diag(x), kind="stable")
        return acc

    def __call__(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)

    def scaled(self, ops: list, cals: list) -> list:
        """Each op time times nominal / mean of the kernel times around it.

        ``cals`` holds one kernel time before every op and one after the last.
        """
        if len(cals) != len(ops) + 1:
            raise ValueError(f"{len(ops)} ops need {len(ops) + 1} kernel times, got {len(cals)}")
        return [
            op * self.nominal_s / (0.5 * (cals[i] + cals[i + 1])) for i, op in enumerate(ops)
        ]
