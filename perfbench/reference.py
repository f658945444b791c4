"""Fixed reference kernels that the benchmark times next to each point.

The host this benchmark was written on changes speed by up to ~1.85x for
seconds to minutes at a time, for reasons outside the machine (NOTES.md,
*Timing*).  A point's wall time divided by the mean time of a reference
kernel run right before and right after it cancels most of that: all three
run in the same host state.  The
kernels never call dvocsim, so a change to the program moves only the
numerator.

The slowdown is not the same for every kind of work, so there is one slice
per kind of work the workloads do, and each workload times the mix of slices
that resembles it (``REFERENCE`` in workloads.py):

* ``small_arrays``: ufunc arithmetic on 4-element complex arrays, like the
  RK4 step loop;
* ``small_matrix``: building a 2x2 array and reading its entries back as
  scalars, like the per-sample certificate check;
* ``format``: ``.17g`` formatting of numpy scalars joined into CSV lines;
* ``bulk``: a broadcast pairwise ``abs``/``max`` reduction over a 2-D complex
  array, like ``sync_error``.

One repetition of a slice takes ~5 ms on a 2-vCPU Intel Xeon VM.  Do not
change the slices: every ratio the benchmark reports is in their units.
"""

from __future__ import annotations

import io
import math
import time

import numpy as np

_RNG = np.random.default_rng(20250911)
_STATE = np.array([1.0 + 0.1j, 0.9 - 0.2j, 1.1 + 0.05j, 0.95 + 0.0j])
_ADMIT = np.array([0.5 - 0.2j, 0.4 - 0.1j, 0.45 - 0.15j, 0.5 - 0.3j])
_COLUMNS = list(_RNG.standard_normal((20, 300)))
_BULK = _RNG.standard_normal((80, 100)) + 1j * _RNG.standard_normal((80, 100))


def _small_arrays() -> complex:
    x = _STATE
    y_sum = _ADMIT.sum()
    for _ in range(600):
        chi = 1.5 * (2.0 - (x.real ** 2 + x.imag ** 2))
        h = (chi - 3.0 + 0.5j) * x
        x = x + 1e-4 * (h + 0.2 * np.dot(_ADMIT, x) / y_sum)
    return complex(x.sum())


def _small_matrix() -> float:
    acc = -math.inf
    for i in range(2000):
        a = 0.001 * i
        b = 0.5 - a
        m = np.array([[a - b * a, -1.0 - a * b], [1.0 - a * b, b - a * a]])
        q = 0.5 * (m[0, 1] + m[1, 0])
        acc = max(acc, 0.5 * (m[0, 0] + m[1, 1])
                  + math.hypot(0.5 * (m[0, 0] - m[1, 1]), q))
    return acc


def _format() -> int:
    out = io.StringIO()
    for row in zip(*_COLUMNS):
        out.write(",".join(format(float(v), ".17g") for v in row) + "\n")
    return out.tell()


def _bulk() -> float:
    return float(np.abs(_BULK[:, :, None] - _BULK[:, None, :])
                 .max(axis=(1, 2)).sum())


SLICES = {
    "small_arrays": _small_arrays,
    "small_matrix": _small_matrix,
    "format": _format,
    "bulk": _bulk,
}


def reference_s(mix: dict[str, int]) -> float:
    """Wall time of the slices in ``mix`` (slice -> repetitions), seconds."""
    start = time.perf_counter()
    for name, reps in mix.items():
        kernel = SLICES[name]
        for _ in range(reps):
            kernel()
    return time.perf_counter() - start
