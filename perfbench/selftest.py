"""Self-tests of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload emits every declared metric, that the
correctness gate catches a server proxy that duplicates an item, that a
sleep injected into the engine raises normalised latency while the host
probe stays put, that a sleep injected into candidate retrieval shows in
``retrieval.*`` and not in ``dpp.*``, that category coverage tells a
quality-only slate from a k-DPP sample.  Exits non-zero on the first
failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the thread caps before numpy loads)

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import serving_load  # noqa: E402
import training_load  # noqa: E402
from repro.retrieval.base import CandidateSource  # noqa: E402
from repro.serving import KDPPServer  # noqa: E402

TINY = {
    "full_sample": dict(num_items=3000, num_users=16, open_rate=60.0, open_slices=1,
                        open_slice_s=0.4, closed_s=0.2),
    "funnel_mixed": dict(num_items=8000, num_shards=4, num_users=16, cache_capacity=8,
                         open_rate=200.0, open_slices=1, open_slice_s=0.4, closed_s=0.2),
}


@contextlib.contextmanager
def patched(owner, attr, value):
    original = owner.__dict__[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def tiny():
    """Shrink the serving specs and the training fit for a quick run."""
    small = {name: dataclasses.replace(serving_load.SPECS[name], **TINY[name]) for name in TINY}
    with patched(serving_load, "SPECS", small), patched(training_load, "EPOCHS", 5):
        yield


def with_sleep(function, seconds):
    @functools.wraps(function)
    def slowed(*args, **kwargs):
        time.sleep(seconds)
        return function(*args, **kwargs)

    return slowed


def run_quiet(workload, trace, seconds=0.5):
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run_workload(workload, seed=3, seconds=seconds, trace=trace)


def check(condition, message):
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


# ----------------------------------------------------------------------
def test_declared_metrics():
    # Per workload, a few layer metrics that must be non-zero there.
    live = {
        "full_sample": ("dpp.build_duals_calls", "dpp.sample_calls", "server.batch_ms_p50",
                        "scheduler.batches", "catalog.publish_ms", "server.first_batch_ms"),
        "funnel_mixed": ("retrieval.rows", "retrieval.pools_ms_p50", "dpp.map_calls",
                         "retrieval.cache_hit_ratio", "scheduler.queue_wait_ms_p50"),
        "train_lkp": ("autodiff.backward_ms", "losses.batch_loss_ms", "dpp.diff_log_esp_calls",
                      "dpp.kernel_fit_ms", "eval.evaluate_ms", "data.instances_ms"),
    }
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run_quiet(workload, trace)
            args = type("Args", (), dict(workload=workload, seed=3, seconds=0.5,
                                         trace=int(trace)))
            with contextlib.redirect_stdout(io.StringIO()):
                final = run.report(args, result)
            names = run.PER_LAYER if trace else run.END_TO_END
            check(set(final["metrics"]) == set(names)
                  and all(math.isfinite(m["value"]) for m in final["metrics"].values()),
                  f"{workload} trace={int(trace)} emits every declared metric, all finite")
            check(final["correct"] and final["attempted"] > 0 and final["failed"] == 0,
                  f"{workload} trace={int(trace)} passes the gate")
            if trace:
                zero = [n for n in live[workload] if not final["metrics"][n]["value"] > 0]
                check(not zero, f"{workload} reports its layers (zero: {zero})")
                check(final["metrics"]["trace.missing"]["value"] == 0,
                      f"{workload} finds every traced seam")


class DuplicatingServer:
    """Proxy that serves every slate with its second item replaced by the first."""

    def __init__(self, server):
        self._server = server

    def __getattr__(self, name):
        return getattr(self._server, name)

    def serve(self, requests, snapshot=None):
        responses = self._server.serve(requests, snapshot=snapshot)
        return [dataclasses.replace(r, items=[r.items[0], *r.items[:-1]]) for r in responses]


def test_gate_catches_duplicates():
    argv = ["--workload", "full_sample", "--seed", "3", "--seconds", "0.5", "--trace", "0"]
    with contextlib.redirect_stdout(io.StringIO()):
        clean = run.main(argv)
    check(clean == 0, "unmodified program: the command exits 0")

    def duplicating(*args, **kwargs):
        return DuplicatingServer(KDPPServer(*args, **kwargs))

    # build_runtime looks the server class up in its module.
    with patched(serving_load, "KDPPServer", duplicating):
        with contextlib.redirect_stdout(io.StringIO()):
            broken = run.main(argv)
    check(broken != 0, "duplicate-item proxy: the command exits non-zero")


def test_sleep_in_engine_is_not_normalised_away():
    # Long enough for a few dozen probe readings: one reading moves by
    # ~20% on a busy host, their median much less.
    base = run_quiet("full_sample", trace=False, seconds=3.0)
    with patched(KDPPServer, "serve", with_sleep(KDPPServer.serve, 0.02)):
        slow = run_quiet("full_sample", trace=False, seconds=3.0)
    before = base["end_to_end"]["latency_p50_ms"]
    after = slow["end_to_end"]["latency_p50_ms"]
    check(after > before + 15.0,
          f"20 ms sleep in KDPPServer.serve raises normalised p50 ({before:.2f} -> {after:.2f} ms)")
    for part in ("py", "blas", "mem"):
        p0, p1 = base["probe"]["summary"][part], slow["probe"]["summary"][part]
        check(abs(p1 - p0) / p0 < 0.35, f"host.probe_{part}_ms stays put ({p0:.2f} -> {p1:.2f})")


def test_sleep_in_retrieval_shows_in_retrieval_only():
    base = run_quiet("funnel_mixed", trace=True)["layers"]
    with patched(CandidateSource, "pools", with_sleep(CandidateSource.pools, 0.01)):
        slow = run_quiet("funnel_mixed", trace=True)["layers"]
    check(slow["retrieval.pools_ms_p50"] > base["retrieval.pools_ms_p50"] + 8.0,
          f"10 ms sleep in CandidateSource.pools shows in retrieval.pools_ms_p50 "
          f"({base['retrieval.pools_ms_p50']:.2f} -> {slow['retrieval.pools_ms_p50']:.2f})")
    for name in ("dpp.log_esp_ms", "dpp.sample_ms", "dpp.map_ms", "dpp.esp_table_ms"):
        check(slow[name] < base[name] + 1.0,
              f"and not in {name} ({base[name]:.3f} -> {slow[name]:.3f})")


def test_coverage_tells_quality_topk_from_kdpp():
    spec = serving_load.SPECS["full_sample"]
    inputs = serving_load.ServingInputs(spec, seed=3)
    server = KDPPServer(serving_load.ItemCatalog(inputs.factors[0]))
    requests = [inputs.request(i) for i in range(32)]
    sampled = [inputs.quality_of(r, s.items)[1] for r, s in zip(requests, server.serve(requests))]
    topk = [inputs.quality_of(r, inputs.best[r.user][: r.k])[1] for r in requests]
    check(np.mean(topk) < 0.75 * np.mean(sampled),
          f"quality-top-k coverage {np.mean(topk):.3f} is clearly below the k-DPP "
          f"sample's {np.mean(sampled):.3f}")


def main() -> int:
    tests = [test_coverage_tells_quality_topk_from_kdpp]
    with tiny():
        tests_tiny = [test_declared_metrics, test_gate_catches_duplicates,
                      test_sleep_in_engine_is_not_normalised_away,
                      test_sleep_in_retrieval_shows_in_retrieval_only]
        for test in tests_tiny:
            test()
    for test in tests:
        test()
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
