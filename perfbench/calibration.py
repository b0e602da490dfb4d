"""Machine-speed calibration: fixed work of the benchmark's own, timed between requests.

The benchmark shares a few cores of a host with other machines, and the
speed it gets drifts by a factor of up to 1.8 over tens of seconds: the same
request took 0.27 s in one 20 s window and 0.49 s in another, with CPU time
equal to wall time throughout.  No run length within the benchmark's time
budget averages that out.  So a fixed kernel, which runs no cimfem code, is
timed before the first request and after every request, and each request's
time is scaled by ``REFERENCE_S`` over the mean of the two kernel times around
it.  The result reads as the request's time on the machine at its reference
speed.  On a 2-vCPU shared VM this cut the quartile spread of 20 s window
medians of ``accel-1d`` from 0.29 to 0.02 of the median.

The kernel mixes what the requests spend their time on: interpreted Python
loops, elementwise numpy on short complex vectors, LAPACK banded solves and a
small sparse LU.  Raw times are kept and printed next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

# Median kernel time measured on the 2-vCPU shared VM where the benchmark was
# defined.  Any fixed value works for comparing commits; this one keeps the
# scaled times near the raw times seen there.
REFERENCE_S = 0.018

_N = 256
_BANDS = np.vstack([-np.ones(_N), 4.0 * np.ones(_N), -np.ones(_N)])
_PHASES = np.exp(1j * np.linspace(0.0, 3.0, _N))
_RHS = np.linspace(0.0, 1.0, _N) + 0j
_GRID = 24
_LAPLACE_1D = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
_LAPLACE_2D = scipy.sparse.csc_matrix(
    scipy.sparse.kronsum(_LAPLACE_1D, _LAPLACE_1D) + 0.5 * scipy.sparse.identity(_GRID**2)
)


def kernel() -> float:
    """The fixed work; returns a checksum so that none of it is skipped."""
    total = 0
    for i in range(60000):
        total += i * i % 7
    acc = 0.0
    for k in range(150):
        w = _PHASES * (k + 1.0) + _RHS
        acc += float(np.sum(np.abs(w) ** 0.5))
        acc += float(scipy.linalg.solve_banded((1, 1), _BANDS, w)[0].real)
    for _ in range(4):
        lu = scipy.sparse.linalg.splu(_LAPLACE_2D)
        acc += float(lu.solve(np.ones(_GRID**2))[0])
    return total + acc


def measure() -> float:
    """Wall time of one kernel run, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel runs into reference seconds."""
    return REFERENCE_S / (0.5 * (before + after))
