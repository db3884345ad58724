"""The online serving runtime: sharding, micro-batching, hot swap.

Three contracts pinned here:

1. **Shard-funnel parity** — `ShardedKDPPServer` over a partitioned
   catalog returns *exactly* what a monolithic `KDPPServer` over the
   unsharded factors returns for the same merged candidate pool
   (identical seeded samples, MAP selections, log-probabilities), and
   `topk-rerank` matches the monolithic full-catalog rerank outright.
2. **Micro-batch admission** — size/time windows against an injected
   clock, futures, per-tag grouping, error isolation, drain-on-close.
3. **Snapshot hot-swap** — in-flight requests complete against the
   version they were admitted under, post-publish requests see the new
   version, and each version's dual spectrum is built exactly once.
"""

import numpy as np
import pytest

from repro.serving import (
    ItemCatalog,
    KDPPServer,
    MicroBatcher,
    Request,
    ServingConfig,
    ServingRuntime,
    ShardedCatalog,
    ShardedKDPPServer,
)
from repro.utils.timing import ManualClock
from repro.utils.topk import top_k_indices, top_k_indices_rows


def _factors(seed: int, m: int, r: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    diversity = rng.normal(size=(m, r))
    diversity /= np.linalg.norm(diversity, axis=1, keepdims=True)
    return diversity


def _quality_batch(seed: int, batch: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(scale=0.5, size=(batch, m)))


# ----------------------------------------------------------------------
# ShardedCatalog / ShardedSnapshot
# ----------------------------------------------------------------------
def test_sharded_catalog_partition_covers_items():
    factors = _factors(0, 103, 6)  # deliberately not divisible by shards
    catalog = ShardedCatalog(factors, num_shards=4)
    snap = catalog.snapshot()
    assert catalog.num_items == 103 and catalog.num_shards == 4
    assert snap.offsets[0] == 0 and snap.offsets[-1] == 103
    assert int(snap.shard_sizes().sum()) == 103
    np.testing.assert_allclose(snap.factors, factors, rtol=0, atol=0)


def test_sharded_take_rows_matches_full_gather():
    factors = _factors(1, 90, 5)
    snap = ShardedCatalog(factors, num_shards=3).snapshot()
    rng = np.random.default_rng(2)
    flat = rng.integers(0, 90, size=17)
    np.testing.assert_array_equal(snap.take_rows(flat), factors[flat])
    grid = rng.integers(0, 90, size=(4, 6))
    np.testing.assert_array_equal(snap.take_rows(grid), factors[grid])


def test_top_k_indices_rows_matches_per_row():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(7, 40))
    for k in (1, 5, 40):
        rows = top_k_indices_rows(scores, k)
        for b in range(7):
            np.testing.assert_array_equal(rows[b], top_k_indices(scores[b], k))
    with pytest.raises(ValueError):
        top_k_indices_rows(scores, 0)
    with pytest.raises(ValueError):
        top_k_indices_rows(scores[0], 3)


def test_shard_topk_matches_per_shard_reference():
    factors = _factors(4, 80, 5)
    snap = ShardedCatalog(factors, num_shards=3).snapshot()
    quality = _quality_batch(4, 5, 80)
    pools = snap.shard_topk(quality, 7)
    for b in range(5):
        expected = []
        for s in range(snap.num_shards):
            lo, hi = int(snap.offsets[s]), int(snap.offsets[s + 1])
            expected.extend((top_k_indices(quality[b, lo:hi], 7) + lo).tolist())
        assert pools[b].tolist() == expected


def test_sharded_validation():
    factors = _factors(5, 40, 4)
    with pytest.raises(ValueError, match="num_shards"):
        ShardedCatalog(factors, num_shards=0)
    with pytest.raises(ValueError, match="num_shards"):
        ShardedCatalog(factors, num_shards=41)
    catalog = ShardedCatalog(factors, num_shards=2)
    with pytest.raises(ValueError, match="item axis"):
        catalog.publish(_factors(5, 39, 4))
    with pytest.raises(ValueError, match="funnel_width"):
        ServingConfig(funnel_width=0)
    server = ShardedKDPPServer(catalog)
    with pytest.raises(ValueError, match="quality shape"):
        server.serve([Request(quality=np.ones(3), k=2)])
    with pytest.raises(ValueError, match="k must be positive"):
        server.serve([Request(quality=np.ones(40), k=0)])


# ----------------------------------------------------------------------
# Shard-funnel parity with the monolithic engine
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def funnel_world():
    factors = _factors(10, 600, 8)
    sharded = ShardedCatalog(factors, num_shards=5)
    return (
        factors,
        sharded,
        ShardedKDPPServer(sharded, config=ServingConfig(funnel_width=12)),
        KDPPServer(ItemCatalog(factors)),
    )


def test_sharded_parity_on_merged_pool(funnel_world):
    factors, _, sharded_server, mono = funnel_world
    quality = _quality_batch(11, 8, factors.shape[0])
    requests = [
        Request(
            quality=quality[b],
            k=4,
            mode="sample" if b % 2 == 0 else "map",
            seed=500 + b,
        )
        for b in range(8)
    ]
    batched = sharded_server.serve(requests)
    for b, request in enumerate(requests):
        pool = sharded_server.funnel_pool(request)
        reference = mono.serve(
            [
                Request(
                    quality=quality[b],
                    k=4,
                    mode=request.mode,
                    candidates=pool,
                    seed=500 + b,
                )
            ]
        )[0]
        assert batched[b].items == reference.items
        assert np.isclose(
            batched[b].log_probability, reference.log_probability, rtol=1e-10
        )
        assert batched[b].version == 0


def test_sharded_rerank_matches_monolithic_full_catalog(funnel_world):
    factors, _, sharded_server, mono = funnel_world
    quality = _quality_batch(12, 4, factors.shape[0])
    requests = [
        Request(quality=quality[b], k=5, mode="topk-rerank", rerank_pool=30)
        for b in range(4)
    ]
    # Per-shard top-N contains the global top-N, so for tie-free
    # qualities (continuous scores, as here) the sharded rerank pool —
    # hence the greedy MAP over it — matches the monolithic server's
    # full-catalog rerank exactly.  Exact ties at the pool cutoff may
    # break differently (documented caveat, like tied greedy-MAP gains).
    batched = sharded_server.serve(requests)
    reference = mono.serve(requests)
    for left, right in zip(batched, reference):
        assert left.items == right.items
        assert left.mode == "topk-rerank"


def test_sharded_full_width_funnel_equals_whole_catalog(funnel_world):
    factors, _, _, mono = funnel_world
    sharded = ShardedCatalog(factors, num_shards=5)
    wide = ShardedKDPPServer(
        sharded, config=ServingConfig(funnel_width=factors.shape[0])
    )
    quality = _quality_batch(13, 3, factors.shape[0])
    for b in range(3):
        request = Request(quality=quality[b], k=4, mode="sample", seed=900 + b)
        pool = wide.funnel_pool(request)
        assert sorted(pool.tolist()) == list(range(factors.shape[0]))
        response = wide.serve([request])[0]
        reference = mono.serve(
            [
                Request(
                    quality=quality[b], k=4, mode="sample",
                    candidates=pool, seed=900 + b,
                )
            ]
        )[0]
        assert response.items == reference.items


def test_sharded_sequential_matches_batched(funnel_world):
    factors, _, sharded_server, _ = funnel_world
    quality = _quality_batch(14, 6, factors.shape[0])
    requests = [
        Request(
            quality=quality[b],
            k=3 + b % 2,
            mode=("sample", "map", "topk-rerank")[b % 3],
            seed=1400 + b,
        )
        for b in range(6)
    ]
    batched = sharded_server.serve(requests)
    sequential = sharded_server.serve_sequential(requests)
    for left, right in zip(batched, sequential):
        assert left.items == right.items
        assert left.mode == right.mode


def test_sharded_exclusions_respected(funnel_world):
    factors, _, sharded_server, _ = funnel_world
    quality = _quality_batch(15, 2, factors.shape[0])
    exclude = np.arange(0, 50)
    responses = sharded_server.serve(
        [
            Request(quality=quality[b], k=4, mode="map", exclude=exclude)
            for b in range(2)
        ]
    )
    for response in responses:
        assert not set(response.items) & set(exclude.tolist())


# ----------------------------------------------------------------------
# MicroBatcher
# ----------------------------------------------------------------------
class _RecordingBackend:
    """A serve() stub recording (batch size, tag) per call."""

    def __init__(self, fail_on=None):
        self.calls = []
        self.fail_on = fail_on

    def __call__(self, requests, tag):
        self.calls.append((len(requests), tag))
        for request in requests:
            if self.fail_on is not None and request == self.fail_on:
                raise ValueError(f"bad request {request}")
        return [f"served:{request}:{tag}" for request in requests]


def test_microbatcher_size_trigger_manual():
    backend = _RecordingBackend()
    clock = ManualClock()
    batcher = MicroBatcher(backend, max_batch=3, max_wait=10.0, workers=0, clock=clock)
    futures = [batcher.submit(i) for i in range(2)]
    assert batcher.poll() == 0  # neither window reached
    futures.append(batcher.submit(2))
    assert batcher.poll() == 1  # size window
    assert [f.result(0) for f in futures] == [
        "served:0:None", "served:1:None", "served:2:None",
    ]
    assert backend.calls == [(3, None)]
    assert batcher.stats["max_batch_size"] == 3


def test_microbatcher_time_trigger_manual():
    backend = _RecordingBackend()
    clock = ManualClock()
    batcher = MicroBatcher(backend, max_batch=64, max_wait=0.5, workers=0, clock=clock)
    future = batcher.submit("lonely")
    assert batcher.poll() == 0
    clock.advance(0.49)
    assert batcher.poll() == 0  # still inside the window
    clock.advance(0.02)
    assert batcher.poll() == 1  # oldest waiter exceeded max_wait
    assert future.result(0) == "served:lonely:None"


def test_microbatcher_caps_batch_and_drains_backlog():
    backend = _RecordingBackend()
    clock = ManualClock()
    batcher = MicroBatcher(backend, max_batch=4, max_wait=0.0, workers=0, clock=clock)
    futures = batcher.submit_many(list(range(10)))
    assert batcher.poll() == 3  # 4 + 4 + 2
    assert [size for size, _ in backend.calls] == [4, 4, 2]
    assert all(f.done() for f in futures)


def test_microbatcher_groups_by_tag():
    backend = _RecordingBackend()
    clock = ManualClock()
    batcher = MicroBatcher(backend, max_batch=8, max_wait=0.0, workers=0, clock=clock)
    batcher.submit("a", tag="v0")
    batcher.submit("b", tag="v0")
    batcher.submit("c", tag="v1")
    assert batcher.poll() == 1  # one dispatch...
    assert sorted(backend.calls) == [(1, "v1"), (2, "v0")]  # ...two serves


def test_microbatcher_error_isolation():
    backend = _RecordingBackend(fail_on=13)
    batcher = MicroBatcher(backend, max_batch=8, workers=0, clock=ManualClock())
    good = batcher.submit(7)
    bad = batcher.submit(13)
    also_good = batcher.submit(21)
    batcher.flush()
    assert good.result(0) == "served:7:None"
    assert also_good.result(0) == "served:21:None"
    with pytest.raises(ValueError, match="bad request 13"):
        bad.result(0)
    stats = batcher.stats
    assert stats["served"] == 2 and stats["failed"] == 1


def test_microbatcher_survives_cancelled_futures():
    """A caller-cancelled future is dropped at dispatch — batch
    neighbors still resolve and the batcher keeps serving (a cancelled
    future must not blow up result delivery)."""
    backend = _RecordingBackend()
    batcher = MicroBatcher(backend, max_batch=8, workers=0, clock=ManualClock())
    kept = batcher.submit("kept")
    doomed = batcher.submit("doomed")
    assert doomed.cancel()
    also_kept = batcher.submit("also-kept")
    batcher.flush()
    assert kept.result(0) == "served:kept:None"
    assert also_kept.result(0) == "served:also-kept:None"
    assert doomed.cancelled()
    stats = batcher.stats
    assert stats["cancelled"] == 1 and stats["served"] == 2
    # The cancelled request was never handed to the backend.
    assert backend.calls == [(2, None)]
    # And the batcher still works afterwards.
    later = batcher.submit("later")
    batcher.flush()
    assert later.result(0) == "served:later:None"


def test_microbatcher_close_drains_and_rejects():
    backend = _RecordingBackend()
    batcher = MicroBatcher(backend, max_batch=8, max_wait=99.0, workers=0,
                           clock=ManualClock())
    future = batcher.submit("straggler")
    batcher.close()
    assert future.result(0) == "served:straggler:None"
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit("late")


def test_microbatcher_threaded_serves_everything():
    backend = _RecordingBackend()
    with MicroBatcher(backend, max_batch=8, max_wait=0.001, workers=2) as batcher:
        futures = [batcher.submit(i) for i in range(50)]
        results = [f.result(10) for f in futures]
    assert results == [f"served:{i}:None" for i in range(50)]
    stats = batcher.stats
    assert stats["served"] == 50 and stats["submitted"] == 50
    assert stats["batches"] >= 1


# ----------------------------------------------------------------------
# ServingRuntime: hot swap + lifecycle
# ----------------------------------------------------------------------
@pytest.fixture()
def runtime_world():
    factors = _factors(20, 120, 6)
    quality = _quality_batch(20, 6, 120)
    return factors, quality


def test_runtime_inflight_requests_keep_admission_version(runtime_world):
    factors, quality = runtime_world
    catalog = ItemCatalog(factors)
    clock = ManualClock()
    with ServingRuntime(catalog, config=ServingConfig(
            workers=0, max_batch=64, max_wait=1.0, clock=clock)) as runtime:
        old_snapshot = catalog.snapshot()
        inflight = runtime.submit(Request(quality=quality[0], k=3, mode="sample",
                                          seed=77))
        refreshed = _factors(21, 120, 6)
        assert runtime.publish(refreshed) == 1
        fresh = runtime.submit(Request(quality=quality[1], k=3, mode="sample",
                                       seed=78))
        runtime.flush()
        first, second = inflight.result(0), fresh.result(0)
        # Admission-version pinning: the pre-publish request served the
        # old factors even though serving happened after the swap.
        assert first.version == 0 and second.version == 1
        reference_old = KDPPServer(ItemCatalog(factors)).serve(
            [Request(quality=quality[0], k=3, mode="sample", seed=77)]
        )[0]
        reference_new = KDPPServer(ItemCatalog(refreshed)).serve(
            [Request(quality=quality[1], k=3, mode="sample", seed=78)]
        )[0]
        assert first.items == reference_old.items
        assert second.items == reference_new.items
        # The displaced snapshot is intact (double buffering).
        np.testing.assert_array_equal(old_snapshot.factors, factors)


def test_runtime_spectra_built_exactly_once_per_version(runtime_world):
    factors, _ = runtime_world
    catalog = ItemCatalog(factors)
    with ServingRuntime(catalog, config=ServingConfig(
            workers=0, max_batch=64, max_wait=0.0,
            clock=ManualClock())) as runtime:
        uniform = np.ones(factors.shape[0])
        snapshot_v0 = catalog.snapshot()
        for _ in range(3):  # repeated uniform-quality batches share one eigh
            future = runtime.submit(Request(quality=uniform, k=3, mode="sample",
                                            seed=5))
            runtime.flush()
            future.result(0)
        assert snapshot_v0.spectrum_builds == 1
        runtime.publish(_factors(22, *factors.shape))
        snapshot_v1 = catalog.snapshot()
        assert snapshot_v1 is not snapshot_v0
        assert snapshot_v1.spectrum_builds == 0  # invalidated by creation...
        for _ in range(2):
            future = runtime.submit(Request(quality=uniform, k=3, mode="sample",
                                            seed=6))
            runtime.flush()
            future.result(0)
        assert snapshot_v1.spectrum_builds == 1  # ...and rebuilt exactly once
        assert snapshot_v0.spectrum_builds == 1  # old readers untouched


def test_runtime_threaded_hot_swap_under_traffic(runtime_world):
    factors, quality = runtime_world
    catalog = ShardedCatalog(factors, num_shards=3)
    generations = [factors, _factors(23, *factors.shape), _factors(24, *factors.shape)]
    with ServingRuntime(catalog, config=ServingConfig(
            workers=2, max_batch=8, max_wait=0.001,
            funnel_width=10)) as runtime:
        futures = []
        for wave, generation in enumerate(generations):
            if wave:
                runtime.publish(generation)
            for b in range(6):
                futures.append(
                    (wave, runtime.submit(
                        Request(quality=quality[b], k=3, mode="map")
                    ))
                )
        results = [(wave, f.result(10)) for wave, f in futures]
    for wave, response in results:
        # A request may only be served by its admission version: publish
        # happens-before the submits of its own wave and every later one.
        assert response.version == wave
        assert len(response.items) == 3


def test_runtime_serve_now_and_stats(runtime_world):
    factors, quality = runtime_world
    with ServingRuntime(ItemCatalog(factors), config=ServingConfig(
            workers=0, clock=ManualClock())) as runtime:
        responses = runtime.serve_now(
            [Request(quality=quality[b], k=2, mode="map") for b in range(3)]
        )
        assert all(len(r.items) == 2 and r.version == 0 for r in responses)
        runtime.submit(Request(quality=quality[0], k=2, mode="map"))
        assert runtime.pending == 1
        runtime.flush()
        stats = runtime.stats
        assert stats["submitted"] == 1 and stats["served"] == 1
        assert stats["catalog_version"] == 0


def test_runtime_microbatching_beats_sequential_semantics(runtime_world):
    """Batched-through-the-runtime must equal direct engine serving."""
    factors, quality = runtime_world
    catalog = ItemCatalog(factors)
    server = KDPPServer(catalog)
    with ServingRuntime(catalog, server=server, config=ServingConfig(
            workers=0, max_batch=64, max_wait=0.0,
            clock=ManualClock())) as runtime:
        requests = [
            Request(quality=quality[b], k=3, mode="sample", seed=300 + b)
            for b in range(6)
        ]
        futures = runtime.submit_many(requests)
        runtime.flush()
        direct = server.serve(requests)
        for future, reference in zip(futures, direct):
            assert future.result(0).items == reference.items


def test_bridge_dispatches_funnel_server_for_sharded_catalog():
    from repro.models import MFRecommender
    from repro.serving import RecommenderBridge

    factors = _factors(31, 90, 6)
    catalog = ShardedCatalog(factors, num_shards=3)
    model = MFRecommender(4, 90, dim=8, rng=0)
    bridge = RecommenderBridge(model, catalog)
    assert isinstance(bridge.server, ShardedKDPPServer)
    response = bridge.recommend([0], k=4, mode="map")[0]
    assert len(response.items) == 4 and response.version == 0


# ----------------------------------------------------------------------
# Runtime + sharded catalog end to end
# ----------------------------------------------------------------------
def test_runtime_sharded_end_to_end():
    factors = _factors(30, 2000, 8)
    quality = _quality_batch(30, 12, 2000)
    catalog = ShardedCatalog(factors, num_shards=8)
    mono = KDPPServer(ItemCatalog(factors))
    with ServingRuntime(catalog, config=ServingConfig(
            workers=0, max_batch=4, max_wait=0.0,
            clock=ManualClock(), funnel_width=16)) as runtime:
        futures = [
            runtime.submit(
                Request(quality=quality[b], k=5, mode="sample", seed=2000 + b)
            )
            for b in range(12)
        ]
        runtime.flush()
        sharded_server = runtime.server
        for b, future in enumerate(futures):
            response = future.result(0)
            request = Request(quality=quality[b], k=5, mode="sample", seed=2000 + b)
            pool = sharded_server.funnel_pool(request)
            reference = mono.serve(
                [Request(quality=quality[b], k=5, mode="sample",
                         candidates=pool, seed=2000 + b)]
            )[0]
            assert response.items == reference.items
