"""Frozen host-speed probe.

The probe is benchmark code that never imports ``repro``: a program
change cannot move it, so its readings measure the host alone.  It has
three separately timed parts, each matching one place the workloads
spend their time:

* ``py``   — a pure-Python loop (the interpreter, as in ``repro.autodiff``);
* ``blas`` — 256x256 float64 matmuls (dense BLAS compute);
* ``mem``  — a vector-matrix product that streams an 84 MB float64 table,
  the size of the ``full_sample`` outer-product table (memory bandwidth).

Each part is timed with ``time.thread_time()``, the CPU time of the
calling thread, and is only run while no request is in flight.

Do not change the parts or their sizes: every reading, and so every
normalised timing, is relative to :data:`REFERENCE_MS`.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe part times (ms) that define "reference host speed".  A timing
#: metric is reported as raw x (reference / the round's probe reading).
REFERENCE_MS = {"py": 4.5, "blas": 3.3, "mem": 6.2}

PARTS = ("py", "blas", "mem")

#: readings per probe; one reading moves by ~20% on a busy host
READINGS = 2

_PY_ITERATIONS = 40_000
_BLAS_SIZE = 256
_BLAS_REPEATS = 4
_MEM_SHAPE = (20_000, 528)  # 84.5 MB of float64


def _py_loop(n: int) -> int:
    acc = 0
    table = {}
    for i in range(n):
        acc += (i * 7) % 13
        table[i & 255] = acc
    return acc + len(table)


class HostProbe:
    """Owns the probe's buffers and its time-stamped readings."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((_BLAS_SIZE, _BLAS_SIZE))
        self._b = rng.standard_normal((_BLAS_SIZE, _BLAS_SIZE))
        # Filled with non-zeros so every page is resident; np.zeros would
        # map the shared zero page and stream nothing.
        self._table = np.full(_MEM_SHAPE, 1.0)
        self._vector = np.full(_MEM_SHAPE[0], 0.5)
        #: ``(wall_time, {"py": ms, "blas": ms, "mem": ms})`` per reading
        self.readings: list[tuple[float, dict[str, float]]] = []

    def measure(self) -> None:
        """Take :data:`READINGS` readings back to back."""
        for _ in range(READINGS):
            self.reading()

    def reading(self) -> dict[str, float]:
        """Time each part once; record and return the reading (ms)."""
        wall = time.perf_counter()
        tick = time.thread_time()
        _py_loop(_PY_ITERATIONS)
        tock = time.thread_time()
        py = tock - tick
        tick = tock
        for _ in range(_BLAS_REPEATS):
            self._a @ self._b
        tock = time.thread_time()
        blas = tock - tick
        tick = tock
        self._vector @ self._table
        mem = time.thread_time() - tick
        reading = {"py": py * 1e3, "blas": blas * 1e3, "mem": mem * 1e3}
        self.readings.append(((wall + time.perf_counter()) / 2, reading))
        return reading

    def speed_factor(self, parts, start: float, end: float, margin: float) -> float:
        """Reference / smoothed probe for the window ``[start, end]``.

        The probe value is the median, over readings taken within
        ``margin`` seconds of the window, of the sum of ``parts``.  Every
        round probes before it ends, so the window always holds one.
        """
        near = [
            reading
            for wall, reading in self.readings
            if start - margin <= wall <= end + margin
        ]
        observed = statistics.median(sum(r[p] for p in parts) for r in near)
        return sum(REFERENCE_MS[p] for p in parts) / observed

    def summary(self) -> dict[str, float]:
        """Median of each part over the run, and the IQR/median spread
        of their sum."""
        out = {
            part: statistics.median(r[part] for _, r in self.readings)
            for part in PARTS
        }
        totals = [sum(r.values()) for _, r in self.readings]
        if len(totals) >= 2:
            q1, _, q3 = statistics.quantiles(totals, n=4)
            out["spread"] = (q3 - q1) / statistics.median(totals)
        else:
            out["spread"] = 0.0
        return out
