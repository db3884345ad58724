"""Throughput of the batched k-DPP serving engine vs the PR 2 loop.

The PR 2 serving path handles one request at a time: rebuild the user's
low-rank kernel, eigendecompose its r×r dual, sample / rerank.  The
engine (`repro.serving.KDPPServer`) serves a whole request batch off one
shared catalog: one batched dual build, one stacked ``eigh``, batched
normalizers, vectorized sampling and MAP.  This benchmark measures both
paths on identical request batches and reports requests/sec plus
p50/p99 latency (per-request for the sequential loop, per-batch for the
engine — batched requests complete together).

Two entry points:

* ``pytest benchmarks/bench_serving_engine.py`` — parity check plus CI
  guards: batched serving must beat the sequential loop at B>=16 (smoke
  and full), and hold >=5x requests/sec on the sample workload at B=64,
  M=10k, r=32 (full mode only).
* ``python benchmarks/bench_serving_engine.py [--output ...]`` — the
  JSON baseline writer behind ``BENCH_serving_engine.json``.

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) to shrink the
workload to import-and-run-path coverage.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

if __package__ is None and __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from repro.serving import ItemCatalog, KDPPServer, Request
from repro.utils.timing import latency_percentiles

MODES = ("sample", "map", "topk-rerank")


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _settings():
    if _smoke():
        return dict(num_items=512, rank=16, k=5, batch_sizes=(8, 16), repeats=3)
    return dict(num_items=10_000, rank=32, k=10, batch_sizes=(16, 64), repeats=3)


def make_world(num_items: int, rank: int, batch: int, seed: int = 0):
    """Shared factors + a batch of per-user qualities, Eq. 2 shaped."""
    rng = np.random.default_rng(seed)
    diversity = rng.normal(size=(num_items, rank))
    diversity /= np.linalg.norm(diversity, axis=1, keepdims=True)
    quality = np.exp(rng.normal(scale=0.5, size=(batch, num_items)))
    return diversity, quality


def make_requests(quality: np.ndarray, k: int, mode: str) -> list[Request]:
    return [
        Request(quality=quality[b], k=k, mode=mode, seed=1000 + b)
        for b in range(quality.shape[0])
    ]


def bench_sequential(server: KDPPServer, requests, repeats: int) -> dict:
    """Per-request latencies of the PR 2 one-at-a-time loop."""
    best_total, best_latencies = np.inf, None
    for _ in range(repeats):
        latencies = []
        start_total = time.perf_counter()
        for request in requests:
            start = time.perf_counter()
            server.serve_sequential([request])
            latencies.append(time.perf_counter() - start)
        total = time.perf_counter() - start_total
        if total < best_total:
            best_total, best_latencies = total, latencies
    quantiles = latency_percentiles(best_latencies)
    return {
        "total_s": best_total,
        "requests_per_s": len(requests) / best_total,
        "p50_ms": quantiles["p50"] * 1e3,
        "p99_ms": quantiles["p99"] * 1e3,
    }


def bench_batched(server: KDPPServer, requests, repeats: int) -> dict:
    """Whole-batch latencies of the engine (requests complete together)."""
    latencies = []
    for _ in range(max(repeats, 2)):
        start = time.perf_counter()
        server.serve(requests)
        latencies.append(time.perf_counter() - start)
    best = min(latencies)
    quantiles = latency_percentiles(latencies)
    return {
        "total_s": best,
        "requests_per_s": len(requests) / best,
        "p50_ms": quantiles["p50"] * 1e3,
        "p99_ms": quantiles["p99"] * 1e3,
    }


def run_workload(mode: str, batch: int, settings=None) -> dict:
    settings = settings or _settings()
    factors, quality = make_world(settings["num_items"], settings["rank"], batch)
    catalog = ItemCatalog(factors)
    server = KDPPServer(catalog)
    catalog.gram_products()  # warm the per-version state once, like a service
    requests = make_requests(quality, settings["k"], mode)
    sequential = bench_sequential(server, requests, settings["repeats"])
    batched = bench_batched(server, requests, settings["repeats"])
    return {
        "sequential": sequential,
        "batched": batched,
        "speedup": batched["requests_per_s"] / sequential["requests_per_s"],
    }


# ----------------------------------------------------------------------
# pytest targets and CI guards
# ----------------------------------------------------------------------
def test_engine_matches_sequential_loop():
    """The two timed paths must return identical recommendations."""
    settings = _settings()
    factors, quality = make_world(settings["num_items"], settings["rank"], 8)
    server = KDPPServer(ItemCatalog(factors))
    for mode in MODES:
        requests = make_requests(quality, settings["k"], mode)
        batched = server.serve(requests)
        sequential = server.serve_sequential(requests)
        for left, right in zip(batched, sequential):
            assert left.items == right.items, f"{mode} items diverged"
            assert np.isclose(
                left.log_probability, right.log_probability, rtol=1e-8, atol=1e-8
            )


def test_bench_engine_batched(benchmark):
    settings = _settings()
    batch = settings["batch_sizes"][-1]
    factors, quality = make_world(settings["num_items"], settings["rank"], batch)
    catalog = ItemCatalog(factors)
    server = KDPPServer(catalog)
    catalog.gram_products()
    requests = make_requests(quality, settings["k"], "sample")
    assert len(benchmark(lambda: server.serve(requests))) == batch


def test_batched_beats_sequential_at_b16():
    """CI guard: batched serving must beat the per-request loop at B>=16.

    Best-of-three on both sides so one GC pause on a shared runner
    cannot flip the verdict.
    """
    result = run_workload("sample", 16)
    assert result["speedup"] > 1.0, (
        f"batched serving not faster at B=16: {result['speedup']:.2f}x "
        f"(batched {result['batched']['total_s']:.4f}s vs sequential "
        f"{result['sequential']['total_s']:.4f}s)"
    )


@pytest.mark.skipif(
    _smoke(), reason="acceptance-scale guard needs the full workload"
)
def test_batched_5x_at_b64():
    """Full-mode guard: >=5x requests/sec at B=64, M=10k, r=32."""
    result = run_workload("sample", 64)
    assert result["speedup"] >= 5.0, (
        f"engine below 5x at B=64: {result['speedup']:.2f}x"
    )


# ----------------------------------------------------------------------
# Standalone baseline writer
# ----------------------------------------------------------------------
def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=None,
        help="write the JSON baseline here (default: print only)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    settings = _settings()
    if args.repeats is not None:
        if args.repeats < 1:
            parser.error(f"--repeats must be >= 1, got {args.repeats}")
        settings["repeats"] = args.repeats

    results = {
        "workload": (
            "multi-user k-DPP serving: batched engine vs the PR 2 "
            "one-request-at-a-time loop"
        ),
        "settings": {key: value for key, value in settings.items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        # Before/after record for the batched greedy-MAP Cholesky
        # rewrite: the per-round correction used to reread the whole
        # (B, k, M) coefficient history; it is now a fused O(B·k·r)
        # Gram–Schmidt step in factor space (see
        # repro.dpp.map_inference._greedy_rounds).  The "before"
        # numbers are the committed PR 3 baseline at B=64, M=10k, r=32.
        "map_cholesky_fusion": {
            "before": {"map_requests_per_s": 572.65, "map_speedup_b64": 2.35},
            "after": {"map_requests_per_s": 1038.53, "map_speedup_b64": 4.44},
        },
        # Second MAP rewrite: the residual per-round python bookkeeping
        # (mask-last-pick loop + per-request append) replaced by one
        # fancy-index write + one batched masked argmax per round (see
        # _greedy_rounds), selections bit-identical.  Measured
        # effect at M=10k..1e5, B=64: within run noise — the remaining
        # per-round cost is the O(B·M) projection/update/argmax passes
        # themselves (BLAS- and memory-bound), no longer python-bound;
        # the O(B) loop removal matters as B grows, not M.  "before" is
        # the committed PR 4 baseline at B=64, M=10k, r=32.
        "map_masked_argmax": {
            "before": {"map_requests_per_s": 1038.53, "map_speedup_b64": 4.44},
            "after": "see batches['64']['map'] below (parity-identical)",
        },
        "batches": {},
    }
    header = (
        f"{'B':>4} {'mode':>12} {'seq req/s':>10} {'bat req/s':>10} "
        f"{'seq p50/p99 ms':>16} {'batch ms':>9} {'speedup':>8}"
    )
    print(header)
    print("-" * len(header))
    for batch in settings["batch_sizes"]:
        per_mode = {}
        for mode in MODES:
            entry = run_workload(mode, batch, settings)
            per_mode[mode] = {
                "sequential": {
                    key: round(value, 6) for key, value in entry["sequential"].items()
                },
                "batched": {
                    key: round(value, 6) for key, value in entry["batched"].items()
                },
                "speedup": round(entry["speedup"], 2),
            }
            sequential, batched = entry["sequential"], entry["batched"]
            print(
                f"{batch:>4} {mode:>12} {sequential['requests_per_s']:>10.0f} "
                f"{batched['requests_per_s']:>10.0f} "
                f"{sequential['p50_ms']:>7.2f}/{sequential['p99_ms']:<8.2f} "
                f"{batched['p50_ms']:>9.2f} {entry['speedup']:>7.2f}x"
            )
        results["batches"][str(batch)] = per_mode
    if args.output:
        Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
        print(f"baseline written to {args.output}")
    return results


if __name__ == "__main__":
    main()
