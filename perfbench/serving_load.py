"""The serving workloads: ``full_sample`` and ``funnel_mixed``.

Load comes from one generator thread (the caller's) against a
``ServingRuntime`` with one worker.  A run is a sequence of rounds; each
round publishes a fresh factor matrix and times it up to the first
response on the new version (set-up), then runs open-loop slices
(arrivals on a schedule, latency timed from each request's due time),
then a closed-loop slice (a fixed number of requests in flight), with a
host probe between phases while nothing is in flight.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass

import numpy as np

from measure import Gate, ProgramPeak, Round, another_round, normalised_timings, percentile
from repro.retrieval import ExactTopK, FunnelCache
from repro.serving import (
    ItemCatalog,
    KDPPServer,
    Request,
    ServingConfig,
    ServingRuntime,
    ShardedCatalog,
    ShardedKDPPServer,
)

MODES = ("sample", "map", "topk-rerank")
RANK = 32
K = 10
NUM_CATEGORIES = 16
FUNNEL_WIDTH = 32
#: requests kept outstanding by the closed loop
IN_FLIGHT = 8


@dataclass(frozen=True)
class ServingSpec:
    sharded: bool
    num_items: int
    num_users: int
    #: open-loop arrival rate (requests/s), fixed so load is host-independent
    open_rate: float
    poisson: bool
    #: (sample, map, topk-rerank) shares of the traffic
    mode_weights: tuple[float, float, float]
    #: share of requests carrying session history or alpha != 1
    session_share: float
    #: funnel-cache entries (None: no cache)
    cache_capacity: int | None
    open_slices: int
    open_slice_s: float
    closed_s: float
    num_shards: int = 8


#: Serving timings are divided by the mem probe part alone.  Over 20
#: runs on a busy host, serving latency correlated 0.89-0.93 with it;
#: dividing by it left a run-to-run spread of 0.03 in p50 latency on
#: both workloads, where the sum of all three parts left 0.09-0.12
#: (the py part moves on its own and only added noise).
PROBE_PARTS = ("mem",)

SPECS = {
    # Evenly spaced at ~0.6 of one-at-a-time capacity (~45 req/s at
    # reference speed for a 2e4-item catalog): a third of it could not
    # leave ~50 samples beyond p95 in one run.  Each round's open slices
    # hold ~200 requests, so the round's own p95 has 10 samples beyond it,
    # and take ~80% of the run.
    "full_sample": ServingSpec(
        sharded=False, num_items=20_000, num_users=96,
        open_rate=28.0, poisson=False, mode_weights=(1.0, 0.0, 0.0),
        session_share=0.0, cache_capacity=None,
        open_slices=3, open_slice_s=2.4, closed_s=0.7,
    ),
    # Poisson at ~1/5 utilisation, so queueing stays close to linear in
    # host speed; the cache holds half the users.  ~250 requests a round,
    # so even a sparse round's p95 has 10 samples beyond it.
    "funnel_mixed": ServingSpec(
        sharded=True, num_items=100_000, num_users=96,
        open_rate=60.0, poisson=True, mode_weights=(0.5, 0.3, 0.2),
        session_share=0.25, cache_capacity=48,
        open_slices=2, open_slice_s=2.1, closed_s=0.6,
    ),
}


def clustered_factors(rng, centroids, categories, spread=0.6):
    """Unit item factors drawn around their category's centroid."""
    rows = centroids[categories] + spread * rng.standard_normal(
        (categories.shape[0], centroids.shape[1])
    ) / np.sqrt(centroids.shape[1])
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class ServingInputs:
    """Everything a run serves, made from the seed before timing."""

    def __init__(self, spec: ServingSpec, seed: int, stream: int = 50_000) -> None:
        rng = np.random.default_rng(seed)
        m, c, u = spec.num_items, NUM_CATEGORIES, spec.num_users
        self.spec = spec
        centroids = rng.standard_normal((c, RANK))
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        self.categories = rng.integers(c, size=m)
        # Two factor generations alternate as each round's publish.
        self.factors = [
            clustered_factors(rng, centroids, self.categories) for _ in range(2)
        ]
        # Every user prefers three categories with the same strengths, so
        # a quality-only slate is narrow (category coverage can tell it
        # from a diverse one) and users differ only by which three.
        preference = np.zeros((u, c))
        for row in preference:
            row[rng.choice(c, size=3, replace=False)] = (2.0, 1.5, 1.0)
        # Row by row, so the harness holds no user x item temporaries.
        self.quality = np.empty((u, m))
        self.best = np.empty((u, 3 * K), dtype=np.int64)
        for user, row in enumerate(self.quality):
            rng.standard_normal(out=row)
            row *= 0.5
            row += preference[user, self.categories]
            np.exp(row, out=row)
            top = np.argpartition(row, m - 3 * K)[m - 3 * K:]
            self.best[user] = top[np.argsort(-row[top])]
        self.users = rng.integers(u, size=stream)
        self.modes = rng.choice(len(MODES), size=stream, p=spec.mode_weights)
        session = rng.random(stream) < spec.session_share
        with_history = rng.random(stream) < 0.5
        history_rows = np.where(session & with_history)[0]
        self.alpha = np.ones(stream)
        alpha_rows = session & ~with_history
        self.alpha[alpha_rows] = rng.choice([0.5, 2.0], size=int(alpha_rows.sum()))
        self.histories = {
            int(j): rng.choice(m, size=K, replace=False) for j in history_rows
        }
        gaps = (
            rng.exponential(1.0 / spec.open_rate, size=stream)
            if spec.poisson
            else np.full(stream, 1.0 / spec.open_rate)
        )
        self.gaps = gaps
        self.stream = stream

    def request(self, i: int) -> Request:
        j = i % self.stream
        user = int(self.users[j])
        return Request(
            quality=self.quality[user],
            k=K,
            mode=MODES[self.modes[j]],
            seed=i,
            user=user,
            alpha=float(self.alpha[j]),
            history=self.histories.get(j),
        )

    def gap(self, i: int) -> float:
        return float(self.gaps[i % self.stream])

    # ------------------------------------------------------------------
    def problem(self, request: Request, response, version: int) -> str | None:
        """Why ``response`` is not a correct answer to ``request``, or None."""
        if isinstance(response, BaseException):
            return f"request {request.seed}: raised {response!r}"
        items = list(response.items)
        k = request.k
        if len(items) != k or len(set(items)) != k:
            return f"request {request.seed}: {items} is not {k} distinct ids"
        if min(items) < 0 or max(items) >= self.spec.num_items:
            return f"request {request.seed}: id out of range in {items}"
        if request.history is not None and set(items) & set(request.history.tolist()):
            return f"request {request.seed}: served an item of its history"
        if request.exclude is not None and set(items) & set(request.exclude.tolist()):
            return f"request {request.seed}: served an excluded item"
        if response.version != version:
            return f"request {request.seed}: version {response.version} != {version}"
        if response.mode != request.mode or response.degraded:
            return f"request {request.seed}: mode {response.mode} degraded={response.degraded}"
        if response.log_probability is None or not np.isfinite(response.log_probability):
            return f"request {request.seed}: log-probability {response.log_probability}"
        return None

    def quality_of(self, request: Request, items) -> tuple[float, float]:
        """(served quality mass / best-k mass, category coverage)."""
        quality = self.quality[request.user]
        blocked = set() if request.history is None else set(request.history.tolist())
        best = [i for i in self.best[request.user] if i not in blocked][: request.k]
        relevance = quality[list(items)].sum() / quality[best].sum()
        coverage = np.unique(self.categories[list(items)]).size / NUM_CATEGORIES
        return float(relevance), float(coverage)


class _Tally:
    """Gate plus relevance/diversity running sums over checked responses."""

    def __init__(self, inputs: ServingInputs) -> None:
        self.inputs = inputs
        self.gate = Gate()
        self.relevance = 0.0
        self.coverage = 0.0
        self.good = 0

    def check(self, request, response, version) -> None:
        if self.gate.record(self.inputs.problem(request, response, version)):
            relevance, coverage = self.inputs.quality_of(request, response.items)
            self.relevance += relevance
            self.coverage += coverage
            self.good += 1


def _outcome(future):
    error = future.exception()
    return error if error is not None else future.result()


class _InFlight:
    """Submits requests and stamps each completion under one condition.

    A future's done-callbacks run after its waiters wake, so completion
    times are taken in the callback and waited for here, never read
    straight after ``concurrent.futures.wait``.
    """

    def __init__(self, runtime, inputs) -> None:
        self.runtime = runtime
        self.inputs = inputs
        self.records: list[list] = []
        self.finished = 0
        self._cond = threading.Condition()

    def launch(self, index: int, due: float | None) -> None:
        """Submit request ``index``; its record is
        ``[due, submitted, done, request, future]``."""
        request = self.inputs.request(index)
        record = [due, time.perf_counter(), None, request, None]
        self.records.append(record)
        record[4] = self.runtime.submit(request)
        record[4].add_done_callback(functools.partial(self._finish, record))

    def _finish(self, record: list, _future) -> None:
        stamp = time.perf_counter()
        with self._cond:
            record[2] = stamp
            self.finished += 1
            self._cond.notify_all()

    def wait_for(self, count: int) -> None:
        with self._cond:
            if not self._cond.wait_for(lambda: self.finished >= count, timeout=120):
                raise TimeoutError(f"{len(self.records) - self.finished} requests stalled")


def open_loop(runtime, inputs, next_index, duration):
    """Submit on the schedule for ``duration`` s, then drain.

    Returns the ``[due, submitted, done, request, future]`` records and
    the next request index.
    """
    clock = time.perf_counter
    flight = _InFlight(runtime, inputs)
    start = clock()
    due = start
    i = next_index
    while due - start < duration:
        now = clock()
        if due > now:
            time.sleep(due - now)
        flight.launch(i, due)
        i += 1
        due += inputs.gap(i)
    flight.wait_for(len(flight.records))
    return flight.records, i


def closed_loop(runtime, inputs, next_index, duration, in_flight):
    """Keep ``in_flight`` requests outstanding for ``duration`` s.

    Returns (records, completions inside the window, seconds from the
    start to the last of them, next request index).
    """
    clock = time.perf_counter
    flight = _InFlight(runtime, inputs)
    i = next_index
    start = clock()
    end = start + duration
    for _ in range(in_flight):
        flight.launch(i, None)
        i += 1
    seen = 0
    while seen < len(flight.records):
        flight.wait_for(seen + 1)
        newly = flight.finished - seen
        seen += newly
        for _ in range(newly):
            if clock() < end:
                flight.launch(i, None)
                i += 1
    # Completions arrive a batch at a time, so the window is closed at
    # the last completion inside it rather than at ``end``.
    inside = [record[2] for record in flight.records if record[2] <= end]
    span = max(inside) - start if inside else duration
    return flight.records, len(inside), span, i


# ----------------------------------------------------------------------
# Tracing seams
# ----------------------------------------------------------------------
def _seeds(args, kwargs):
    return tuple(request.seed for request in args[1])


def _seed(args, kwargs):
    return args[1].seed


def install_spans(tracer) -> None:
    tracer.wrap("repro.serving.runtime:ServingRuntime.submit", "runtime.submit", _seed)
    tracer.wrap("repro.serving.runtime:ServingRuntime.publish", "catalog.publish")
    tracer.wrap("repro.serving.sharding:ShardedKDPPServer.serve", "sharding.serve", _seeds)
    tracer.wrap("repro.serving.server:KDPPServer.serve", "server.serve", _seeds)
    tracer.wrap("repro.retrieval.base:CandidateSource.pools", "retrieval.pools")
    tracer.wrap("repro.serving.catalog:CatalogSnapshot.build_duals", "dpp.build_duals")
    tracer.wrap("repro.serving.server:batched_log_esp", "dpp.log_esp")
    tracer.wrap("repro.serving.server:batched_esp_table", "dpp.esp_table")
    for suffix in ("shared", "stacked"):
        tracer.wrap(f"repro.serving.server:batched_sample_elementary_{suffix}", "dpp.sample")
        tracer.wrap(f"repro.serving.server:batched_greedy_map_{suffix}", "dpp.map")
        tracer.wrap(f"repro.serving.server:batched_greedy_map_{suffix}_session", "dpp.map")


# ----------------------------------------------------------------------
def build_runtime(spec: ServingSpec, inputs: ServingInputs):
    config = ServingConfig(workers=1, funnel_width=FUNNEL_WIDTH)
    if spec.sharded:
        catalog = ShardedCatalog(inputs.factors[0], num_shards=spec.num_shards)
        server = ShardedKDPPServer(
            catalog,
            config=config.replace(
                source=ExactTopK(), funnel_cache=FunnelCache(spec.cache_capacity)
            ),
        )
    else:
        catalog = ItemCatalog(inputs.factors[0])
        server = KDPPServer(catalog, config=config)
    return ServingRuntime(catalog, server=server, config=config)


def run(spec: ServingSpec, seed: int, seconds: float, probe, tracer=None) -> dict:
    clock = time.perf_counter
    inputs = ServingInputs(spec, seed)
    memory = ProgramPeak()
    tally = _Tally(inputs)
    rounds: list[Round] = []
    open_records: list[list] = []
    windows: list[tuple[float, float]] = []
    index = 0
    with build_runtime(spec, inputs) as runtime:
        # Warm the engine's code paths once before anything is timed.
        warm = inputs.request(inputs.stream - 1)
        runtime.submit(warm).result(120)
        probe.measure()
        if tracer is not None:
            install_spans(tracer)
        began = clock()
        try:
            while another_round(rounds, began, seconds):
                current = Round(start=clock())
                version = runtime.publish(inputs.factors[(len(rounds) + 1) % 2])
                request = inputs.request(index)
                index += 1
                response = _outcome(runtime.submit(request))
                current.setup_s = clock() - current.start
                tally.check(request, response, version)
                probe.measure()
                for _ in range(spec.open_slices):
                    window = clock()
                    records, index = open_loop(runtime, inputs, index, spec.open_slice_s)
                    windows.append((window, clock()))
                    for due, _, done, request, future in records:
                        current.latencies.append(done - due)
                        tally.check(request, _outcome(future), version)
                    open_records.extend(records)
                    probe.measure()
                window = clock()
                records, completed, span, index = closed_loop(
                    runtime, inputs, index, spec.closed_s, IN_FLIGHT
                )
                windows.append((window, clock()))
                current.work, current.work_s = completed, span
                for record in records:
                    tally.check(record[3], _outcome(record[4]), version)
                probe.measure()
                current.end = clock()
                rounds.append(current)
        finally:
            if tracer is not None:
                tracer.restore()
        measured_s = clock() - began
        parity_check(runtime, inputs, index, tally.gate)
        footprint = runtime.footprint().total_tracked_bytes
        retrieval = runtime.stats.get("retrieval")
    timings = normalised_timings(rounds, probe, PROBE_PARTS)
    lags = [(submitted - due) * 1e3 for due, submitted, *_ in open_records]
    result = {
        "gate": tally.gate,
        "timings": timings,
        "end_to_end": {
            **timings["normalised"],
            "success_rate": (tally.gate.attempted - tally.gate.failed) / max(tally.gate.attempted, 1),
            "relevance": tally.relevance / max(tally.good, 1),
            "diversity": tally.coverage / max(tally.good, 1),
            "peak_rss_mb": memory.peak_mb(),
        },
        "layers": {"loadgen.lag_ms_p95": percentile(lags, 95)},
        "measured_s": measured_s,
        "memory": memory.detail(),
    }
    if tracer is not None:
        result["layers"].update(
            layer_metrics(tracer, open_records, windows, footprint, retrieval)
        )
    return result


def parity_check(runtime, inputs, index, gate) -> None:
    """A seeded batch through the runtime must equal ``serve_sequential``
    on the same snapshot, item for item."""
    snapshot = runtime.catalog.snapshot()
    batch = [inputs.request(index + j) for j in range(8)]
    served = [_outcome(f) for f in runtime.submit_many(batch)]
    reference = runtime.server.serve_sequential(batch, snapshot=snapshot)
    for request, got, want in zip(batch, served, reference):
        problem = inputs.problem(request, got, snapshot.version)
        if problem is None and (
            list(got.items) != list(want.items)
            or got.mode != want.mode
            or not np.isclose(got.log_probability, want.log_probability, rtol=1e-6)
        ):
            problem = (
                f"request {request.seed}: runtime served {got.items}, "
                f"serve_sequential {want.items}"
            )
        gate.record(problem)


# ----------------------------------------------------------------------
def layer_metrics(tracer, open_records, windows, footprint_bytes, retrieval) -> dict:
    spans = tracer.spans
    names = {span[0]: span[1] for span in spans}
    serve_names = ("server.serve", "sharding.serve")
    batches = [
        s for s in spans
        if s[1] in serve_names and names.get(s[4]) not in serve_names
    ]
    batches.sort(key=lambda s: s[2])
    batch_of = {}
    for span in batches:
        for seed in span[5]:
            batch_of.setdefault(seed, span)
    submits = {s[5]: s for s in tracer.by_name("runtime.submit")}
    waits = [
        (batch_of[seed][2] - submit[2]) * 1e3
        for seed, submit in submits.items()
        if seed in batch_of
    ]
    load_s = sum(end - start for start, end in windows)

    def inside(span):
        return any(start <= span[2] <= end for start, end in windows)

    def calls(name):
        found = tracer.by_name(name)
        mean = sum(s[3] - s[2] for s in found) / len(found) * 1e3 if found else 0.0
        return mean, len(found)

    layer_self = tracer.self_time_by_layer()
    batch_ms = [(s[3] - s[2]) * 1e3 for s in batches]
    batch_sizes = [len(s[5]) for s in batches]
    publishes = sorted(tracer.by_name("catalog.publish"), key=lambda s: s[2])
    first_batches = []
    for publish in publishes:
        after = next((s for s in batches if s[2] >= publish[3]), None)
        if after is not None:
            first_batches.append((after[3] - after[2]) * 1e3)
    pools = tracer.by_name("retrieval.pools")
    out = {
        "runtime.submit_us_p50": percentile(
            [(s[3] - s[2]) * 1e6 for s in submits.values()], 50
        ),
        "scheduler.queue_wait_ms_p50": percentile(waits, 50),
        "scheduler.queue_wait_ms_p95": percentile(waits, 95),
        "scheduler.batch_size_mean": float(np.mean(batch_sizes)) if batches else 0.0,
        "scheduler.batches": len(batches),
        "server.batch_ms_p50": percentile(batch_ms, 50),
        "server.ms_per_request": sum(batch_ms) / max(sum(batch_sizes), 1),
        "server.busy_frac": sum(s[3] - s[2] for s in batches if inside(s)) / load_s,
        "server.self_ms": (layer_self.get("server", 0.0) + layer_self.get("sharding", 0.0))
        * 1e3 / max(len(batches), 1),
        "retrieval.pools_ms_p50": percentile([(s[3] - s[2]) * 1e3 for s in pools], 50),
        "retrieval.busy_frac": sum(s[3] - s[2] for s in pools if inside(s)) / load_s,
        "catalog.publish_ms": float(np.mean([(s[3] - s[2]) * 1e3 for s in publishes])),
        "server.first_batch_ms": float(np.mean(first_batches)) if first_batches else 0.0,
        "catalog.footprint_mb": footprint_bytes / 2**20,
    }
    if retrieval is not None:
        out["retrieval.rows"] = retrieval["source"]["rows"]
        cache = retrieval["cache"] or {}
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        out["retrieval.cache_hit_ratio"] = cache.get("hits", 0) / lookups if lookups else 0.0
    for name in ("build_duals", "log_esp", "esp_table", "sample", "map"):
        out[f"dpp.{name}_ms"], out[f"dpp.{name}_calls"] = calls(f"dpp.{name}")
    explained = residual = total = 0.0
    for due, _, done, request, _ in open_records:
        batch = batch_of.get(request.seed)
        if batch is None:
            continue
        explained += batch[3] - due
        residual += done - batch[3]
        total += done - due
    out["trace.explained_frac"] = explained / total if total else 0.0
    out["trace.residual_ms"] = residual * 1e3 / max(len(open_records), 1)
    return out
