"""Fixed reference kernels, timed next to every operation of a run.

The machine a run lands on changes speed by 10-50% over minutes (see
"Statistic" in README.md), and a median inside one run cannot hide a slow
stretch that covers the run.  Each timed operation and episode is therefore
divided by a reference kernel timed right before and right after it, in the
same process: a slow stretch lengthens both, and the ratio stays.

The kernels use fixed inputs (not the run seed) and call nothing of
``slsctrl``, so no change to the package moves them:

- ``dense``: Cholesky and solve of a fixed 500x500 positive definite system
  with 100 right-hand sides; bound by dense BLAS, like stacking and solving.
- ``loop``: 400 Python-level products of growing row slices of a fixed
  600x600 matrix with a vector; bound by the interpreter and small numpy
  calls, like a controller rolled out step by step.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20221001)
_A = _RNG.standard_normal((500, 500))
_A = _A @ _A.T + 500 * np.eye(500)
_B = np.ascontiguousarray(_A[:, :100])
_K = 1e-3 * _RNG.standard_normal((600, 600))
LOOP_STEPS = 400


def dense():
    """Seconds for one Cholesky factorization and one solve of the fixed system."""
    t0 = time.perf_counter()
    np.linalg.cholesky(_A)
    np.linalg.solve(_A, _B)
    return time.perf_counter() - t0


def loop():
    """Seconds for LOOP_STEPS row-slice products, one Python iteration each."""
    t0 = time.perf_counter()
    x = np.zeros(LOOP_STEPS)
    for t in range(1, LOOP_STEPS):
        x[t] = _K[t, :t] @ x[:t] + 1.0
    return time.perf_counter() - t0


KERNELS = {"dense": dense, "loop": loop}


def warm_up(repeats=5):
    """Run every kernel a few times so that its first, slower calls are not timed."""
    for kernel in KERNELS.values():
        for _ in range(repeats):
            kernel()
