"""Shared measurement pieces: the correctness gate, percentiles, rounds
and the host-speed normalisation of their timings."""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


class Gate:
    """Counts attempted operations and the ones that broke a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, problem: str | None) -> bool:
        """Count one operation; ``problem`` is ``None`` when it passed."""
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(problem)
        return False


@dataclass
class Round:
    """One interleaved round: its wall-clock window and raw timings."""

    start: float
    end: float = 0.0
    setup_s: float = 0.0
    #: raw latencies (s) measured in this round
    latencies: list[float] = field(default_factory=list)
    #: (work units completed, raw seconds) of the round's capacity slices
    work: int = 0
    work_s: float = 0.0


def another_round(rounds: list[Round], began: float, seconds: float) -> bool:
    """Whether to start another round: the run stops at the round end
    nearest to ``seconds`` after ``began``."""
    elapsed = time.perf_counter() - began
    return not rounds or elapsed + elapsed / len(rounds) / 2 <= seconds


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def normalised_timings(rounds: list[Round], probe, parts, margin: float = 2.0) -> dict:
    """The timing metrics at reference host speed, with their raw values.

    Each round's raw timings are multiplied by that round's speed factor
    (reference probe / smoothed probe around the round).  Set-up time and
    the latency percentiles are the median over rounds of the round's own
    value, so a host stall that hits one round in a burst moves that
    round's tail, not the run's, while a program change that slows at
    least every other round still moves the median.  Capacity is all the
    rounds' work over their summed capacity seconds.
    """
    factors = [probe.speed_factor(parts, r.start, r.end, margin) for r in rounds]

    def metrics(scales):
        def median(values):
            return statistics.median(v * f for v, f in zip(values, scales))

        return {
            "setup_s": median(r.setup_s for r in rounds),
            "latency_p50_ms": median(percentile(r.latencies, 50) * 1e3 for r in rounds),
            "latency_p95_ms": median(percentile(r.latencies, 95) * 1e3 for r in rounds),
            "capacity_per_s": sum(r.work for r in rounds)
            / sum(r.work_s * f for r, f in zip(rounds, scales)),
        }

    latencies = [lat * f for r, f in zip(rounds, factors) for lat in r.latencies]
    samples = {
        "rounds": len(rounds),
        "latency_samples": len(latencies),
        "beyond_p95": int(round(len(latencies) * 0.05)),
        "round_beyond_p95_min": min(int(len(r.latencies) * 0.05) for r in rounds),
        "pooled_p95_ms": percentile(latencies, 95) * 1e3,
        "speed_factor_min": min(factors),
        "speed_factor_max": max(factors),
    }
    return {"normalised": metrics(factors), "raw": metrics([1.0] * len(rounds)),
            "samples": samples}


def _status_mb(field_name: str) -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) / 1024.0  # the value is in kB
    raise KeyError(field_name)


class ProgramPeak:
    """Peak resident memory the program adds on top of the harness.

    Made once the harness's inputs and probe buffers exist: it resets the
    process's high-water mark (``VmHWM``) to the current resident set,
    which it keeps as the harness share.  :meth:`peak_mb` is the
    high-water mark since then minus that share, so the harness's own
    allocations before the reset cannot mask a program regression.
    """

    def __init__(self) -> None:
        try:
            with open("/proc/self/clear_refs", "w") as refs:
                refs.write("5")  # reset VmHWM to the current VmRSS
            self.reset = True
        except OSError:
            self.reset = False
        self.harness_mb = _status_mb("VmRSS")

    def peak_mb(self) -> float:
        if self.reset:
            high = _status_mb("VmHWM")
        else:
            # ru_maxrss is in KiB on Linux and counts the harness's peak too.
            high = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return high - self.harness_mb

    def detail(self) -> dict:
        return {"harness_mb": self.harness_mb, "hwm_reset": self.reset}


def environment() -> dict:
    """What a reader needs to tell this host from another."""
    info = {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info
