"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of a core drifts by a third or more over seconds
to minutes, as other tenants load the machine, and a run's wall times drift
with it.  A fixed kernel of the same kind of work as the solver (a sparse
LU solve, then an iteration of sparse products and vector updates driven
from Python) is timed next to every timed stretch of the benchmark.  A time
divided by the kernel's time measured beside it, times REFERENCE_S, is the
time the stretch would have taken on a machine where the kernel takes
REFERENCE_S: the program's speed with the host's drift taken out.  The
kernel uses numpy and scipy only, so no change to the solver moves it.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

GRID = 80               # the kernel's matrix is the 5-point Laplacian on GRID^2 points
ITERATIONS = 600        # products and updates after the LU solve
# The kernel's median time on the machine the benchmark was defined on,
# a 2-vCPU VM (OpenBLAS on one thread).
REFERENCE_S = 0.045


@functools.cache
def _system():
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
    eye = sp.eye(GRID)
    a = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()
    return a, a.tocsr(), np.linspace(1.0, 2.0, GRID * GRID)


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel."""
    a_csc, a_csr, b = _system()
    t0 = time.perf_counter()
    x = spla.splu(a_csc).solve(b)
    for _ in range(ITERATIONS):
        y = a_csr @ x
        x = y / np.sqrt(float(y @ x))
        x[:GRID] += 1e-3
    return time.perf_counter() - t0


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a time measured between two kernel runs into
    reference seconds."""
    return 2.0 * REFERENCE_S / (before_s + after_s)
