"""Reference kernels that measure how fast the machine is right now.

On a shared host, other tenants slow this process by up to ~1.7x, in
bursts from a second to minutes long, so raw times of the same work differ
by more between runs than the changes the benchmark must detect. Each timed
operation is therefore scaled by a reference kernel timed just before and
just after it: the reported time is the time the operation would take on a
machine where the kernel takes its nominal time. The kernels are frozen
benchmark code; no change to the package changes them.

Contention comes in kinds that move independently, so there is one kernel
per kind of work, each checked on a 2-vCPU Xeon VM as the quartile spread
of window medians, scaled against raw:

- PYTHON, for interpreted code: nested-list lookups in a pair-energy loop,
  a small numpy add and a sort of candidate tuples, as most of the package
  does (greedy growth 0.035 against 0.12; model load 0.06 against 0.10).
- NUMPY, for sweeps over tensors larger than the caches: it updates and
  rescales a 3 x 120 x 120 float64 tensor like the normalized trainer
  (that trainer at d=120: 0.07 against 0.41).
- PROCESS, for subprocesses: it starts an isolated interpreter that does
  nothing, so it pays the exec and start-up costs a CLI call pays (a CLI
  call: 0.016 against 0.07).
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

import numpy as np

_rng = random.Random(0)
_D = 24
_TABLE = [[[_rng.random() for _ in range(_D)] for _ in range(_D)] for _ in range(3)]
_WORDS = [tuple(_rng.randrange(_D) for _ in range(_rng.randint(3, 12))) for _ in range(40)]
_BASE = np.array([_rng.random() for _ in range(_D)])
_G = np.zeros((3, 120, 120))
_C = np.random.default_rng(0).random((3, 120, 120))

# Tensors at least this large are swept by numpy from memory, not cache.
LARGE_TENSOR_BYTES = 64 * 1024


def _python_kernel() -> float:
    start = time.perf_counter()
    total = 0.0
    for w in _WORDS:
        n = len(w)
        for x in range(n - 1):
            row = w[x]
            for r in range(1, min(3, n - 1 - x) + 1):
                total += 1.0 - _TABLE[r - 1][row][w[x + r]]
        energies = _BASE + total
        sorted((float(energies[s]), s) for s in range(_D))
    return time.perf_counter() - start


def _numpy_kernel() -> float:
    start = time.perf_counter()
    for _ in range(8):
        _G.__iadd__(1e-4 * _C)
        _G.__imul__(0.5)
    return time.perf_counter() - start


def _process_kernel() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)
    return time.perf_counter() - start


class Kernel:
    def __init__(self, run, nominal_s: float, runs: int) -> None:
        self._run = run
        self.nominal_s = nominal_s  # its time on an uncontended 2.1 GHz Xeon core
        self._runs = runs

    def reading(self) -> float:
        """Seconds for one run; the fastest of a few back-to-back runs for
        the in-process kernels, because the first run after a large
        operation starts on cold caches."""
        return min(self._run() for _ in range(self._runs))


PYTHON = Kernel(_python_kernel, 340e-6, runs=2)
NUMPY = Kernel(_numpy_kernel, 250e-6, runs=2)
PROCESS = Kernel(_process_kernel, 40e-3, runs=1)
