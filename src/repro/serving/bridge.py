"""Plugging trained recommenders into the serving engine.

Any :class:`~repro.models.base.Recommender` (MF, NeuMF, GCN, GCMC) can
act as the quality-score source of Eq. 2: its raw scores are mapped to
positive qualities with the same transform family LkP training uses
(``exp`` for inner-product models, ``sigmoid`` for classifier heads),
optionally tempered — at serving time the temperature plays the
relevance-vs-diversity trade-off role of Chen et al.'s re-ranker
parameter.

:class:`RecommenderBridge` adds the two request-level conveniences a
service needs:

* **candidate-pool restriction** — serve each user from their top-N
  candidate slice of ``V`` instead of the whole catalog (an order of
  magnitude less per-request work at catalog scale);
* an **LRU response cache** keyed by ``(user, k, mode, seed, pool,
  catalog version, score snapshot)`` — deterministic requests (MAP,
  rerank, seeded samples) are served from memory; unseeded samples are
  never cached (each call must draw fresh).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np

from ..dpp.kernels import SCORE_CLIP
from ..models.base import Recommender
from ..utils.topk import top_k_indices
from .catalog import ItemCatalog
from .config import ServingConfig
from .server import KDPPServer, Request, Response, extend_pool_for_constraints
from .sharding import ShardedCatalog, ShardedKDPPServer

__all__ = ["RecommenderBridge", "quality_from_scores"]


def quality_from_scores(
    scores: np.ndarray,
    transform: str = "exp",
    temperature: float = 1.0,
    floor: float = 1e-4,
) -> np.ndarray:
    """Numpy twin of the Eq. 2/13 quality transforms for serving.

    ``exp`` — Eq. 13's ``exp(score / T)`` with the same ±12 clip training
    applies; ``sigmoid`` — probability-head models (NeuMF, GCMC), floored
    to keep the kernel strictly PD; ``identity`` — models that already
    emit positive qualities.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if transform == "exp":
        return np.exp(np.clip(scores / temperature, -SCORE_CLIP, SCORE_CLIP))
    if transform == "sigmoid":
        return 1.0 / (1.0 + np.exp(-scores / temperature)) + floor
    if transform == "identity":
        return np.clip(scores, floor, np.inf)
    raise ValueError(f"unknown quality transform {transform!r}")


class RecommenderBridge:
    """Serves a trained recommender's users through a :class:`KDPPServer`.

    Parameters
    ----------
    model:
        Trained backbone; its ``quality_transform`` attribute picks the
        score-to-quality mapping, its ``full_scores()`` supplies the
        score matrix (snapshotted once; call :meth:`refresh_scores`
        after further training).
    catalog / server:
        The shared factor snapshot and the engine over it (a fresh
        server is built when one is not passed).
    known_items:
        Optional per-user arrays of item ids to exclude (the user's
        training interactions under the standard protocol).
    candidate_pool:
        When set, each request is restricted to the user's top-N items
        by quality — the candidate-slice serving path.
    config:
        A :class:`~repro.serving.config.ServingConfig` configuring the
        default server built here — most relevantly the funnel plug-ins
        ``source`` / ``funnel_cache`` (any
        :class:`~repro.retrieval.base.CandidateSource`, an optional
        :class:`~repro.retrieval.cache.FunnelCache`); requests built
        here carry the user id, so the funnel cache keys naturally.
        Plug-ins are rejected when an explicit ``server`` is passed —
        configure that server directly instead.
    """

    def __init__(
        self,
        model: Recommender,
        catalog: ItemCatalog | ShardedCatalog,
        server: KDPPServer | None = None,
        known_items: Sequence[np.ndarray] | None = None,
        temperature: float = 1.0,
        candidate_pool: int | None = None,
        cache_size: int = 256,
        config: ServingConfig | None = None,
    ) -> None:
        if catalog.num_items != model.num_items:
            raise ValueError(
                f"catalog covers {catalog.num_items} items but the model "
                f"has {model.num_items}"
            )
        if candidate_pool is not None and candidate_pool < 1:
            raise ValueError(f"candidate_pool must be positive, got {candidate_pool}")
        if cache_size < 0:
            raise ValueError(f"cache_size must be non-negative, got {cache_size}")
        config = config if config is not None else ServingConfig()
        self.model = model
        self.catalog = catalog
        if server is None:
            # Mirror ServingRuntime's dispatch: a sharded catalog needs
            # the funnel server (the plain engine cannot read it).
            if isinstance(catalog, ShardedCatalog):
                server = ShardedKDPPServer(catalog, config=config)
            elif config.source is not None or config.funnel_cache is not None:
                raise ValueError(
                    "candidate sources / funnel caches require a sharded "
                    "catalog (the monolithic engine has no funnel stage)"
                )
            else:
                server = KDPPServer(catalog, config=config)
        elif config.source is not None or config.funnel_cache is not None:
            raise ValueError(
                "pass source/funnel_cache either to the bridge (to build "
                "the default server) or to your own server, not both"
            )
        self.server = server
        self.known_items = known_items
        self.temperature = temperature
        self.candidate_pool = candidate_pool
        self.cache_size = cache_size
        self._cache: OrderedDict[tuple, Response] = OrderedDict()
        # The micro-batch runtime calls ``recommend`` from worker
        # threads; OrderedDict move_to_end/popitem are not atomic with
        # their surrounding get/put logic, so all cache state (entries
        # and hit/miss counters) is guarded by one lock.  Serving itself
        # happens outside the lock.
        self._cache_lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self._scores: np.ndarray | None = None
        self._scores_token = 0

    # ------------------------------------------------------------------
    def _scores_state(self) -> tuple[np.ndarray, int]:
        """The ``(matrix, token)`` score snapshot, captured atomically.

        One lock acquisition pairs the matrix with the token it belongs
        to, so a :meth:`refresh_scores` racing a worker thread can never
        cache responses computed from the new matrix under the old
        token's key (and a cold bridge computes ``full_scores`` once,
        not once per racing worker).
        """
        with self._cache_lock:
            if self._scores is None:
                self._scores = np.asarray(self.model.full_scores(), dtype=np.float64)
            return self._scores, self._scores_token

    def scores(self) -> np.ndarray:
        """The model's score matrix, snapshotted on first use."""
        return self._scores_state()[0]

    def refresh_scores(self) -> None:
        """Re-snapshot model scores (after training) and drop stale cache."""
        with self._cache_lock:
            self._scores = None
            self._scores_token += 1

    def _quality_from_matrix(self, scores: np.ndarray, user: int) -> np.ndarray:
        transform = getattr(self.model, "quality_transform", "exp")
        return quality_from_scores(
            scores[int(user)], transform, temperature=self.temperature
        )

    def quality_for_user(self, user: int) -> np.ndarray:
        return self._quality_from_matrix(self.scores(), user)

    def _exclusions(self, user: int) -> np.ndarray | None:
        if self.known_items is None:
            return None
        return np.asarray(self.known_items[int(user)], dtype=np.int64)

    def build_request(
        self,
        user: int,
        k: int,
        mode: str = "map",
        seed: int | None = None,
        scores: np.ndarray | None = None,
        alpha: float = 1.0,
        history=None,
        pins=None,
        quotas=None,
        categories=None,
    ) -> Request:
        """Assemble one user's :class:`Request` (quality, exclusions, pool).

        ``scores`` lets :meth:`recommend` pin one captured score matrix
        across a whole batch; default is the current snapshot.  The
        session fields (``alpha`` / ``history`` / ``pins`` / ``quotas``
        / ``categories``) pass straight through to the request; history
        items are additionally masked out of a ``candidate_pool`` slice
        so paging never wastes pool slots on already-shown items.
        """
        quality = self._quality_from_matrix(
            self.scores() if scores is None else scores, user
        )
        exclude = self._exclusions(user)
        candidates = None
        if self.candidate_pool is not None and mode != "topk-rerank":
            masked = quality
            zero = [
                ids
                for ids in (exclude, history)
                if ids is not None and len(ids) > 0
            ]
            if zero:
                masked = quality.copy()
                masked[np.concatenate([np.asarray(i, dtype=np.int64) for i in zero])] = 0.0
            candidates = top_k_indices(masked, max(self.candidate_pool, k))
            candidates = extend_pool_for_constraints(
                candidates, masked, pins, quotas, categories
            )
        return Request(
            quality=quality,
            k=k,
            mode=mode,
            exclude=exclude,
            candidates=candidates,
            seed=seed,
            user=int(user),
            alpha=alpha,
            history=history,
            pins=pins,
            quotas=quotas,
            categories=categories,
        )

    # ------------------------------------------------------------------
    def _cache_key(
        self,
        user: int,
        k: int,
        mode: str,
        seed: int | None,
        catalog_version: int,
        scores_token: int,
        alpha: float = 1.0,
    ):
        return (
            int(user),
            int(k),
            mode,
            seed,
            self.candidate_pool,
            self.temperature,
            catalog_version,
            scores_token,
            float(alpha),
        )

    def recommend(
        self,
        users: Sequence[int],
        k: int,
        mode: str = "map",
        seeds: Sequence[int] | None = None,
        alpha: float = 1.0,
    ) -> list[Response]:
        """Batched recommendations for ``users``, LRU-cached.

        Deterministic requests (``map`` / ``topk-rerank`` always, and
        ``sample`` when a per-user seed is given) hit the cache; cache
        keys include the catalog version, score snapshot and the
        diversity strength ``alpha`` so a :meth:`ItemCatalog.refresh`,
        :meth:`refresh_scores` or a different ``alpha`` invalidates
        stale responses without any explicit flush.  (Session-stateful
        requests — history / pins / quotas — go through
        :meth:`build_request` and the server directly; their responses
        are page-dependent and never belong in this per-user cache.)
        """
        if seeds is not None and len(seeds) != len(users):
            raise ValueError(
                f"need one seed per user, got {len(seeds)} for {len(users)}"
            )
        responses: list[Response | None] = [None] * len(users)
        pending: list[tuple[int, tuple | None]] = []
        requests: list[Request] = []
        # One capture of the score state and one of the catalog snapshot
        # cover the whole batch, so keys, served quality and the served
        # factor version always describe the same state even when
        # refresh_scores() or a catalog hot-swap lands mid-call.
        scores, scores_token = self._scores_state()
        snapshot = self.catalog.snapshot()
        for position, user in enumerate(users):
            seed = None if seeds is None else int(seeds[position])
            cacheable = mode != "sample" or seed is not None
            key = (
                self._cache_key(
                    user, k, mode, seed, snapshot.version, scores_token, alpha
                )
                if cacheable
                else None
            )
            cached = None
            if key is not None:
                with self._cache_lock:
                    cached = self._cache.get(key)
                    if cached is not None:
                        self._cache.move_to_end(key)
                        self.cache_hits += 1
                    else:
                        self.cache_misses += 1
            else:
                with self._cache_lock:
                    self.cache_misses += 1
            if cached is not None:
                # dataclasses.replace keeps every Response field (the
                # overload stamps included) without re-listing them; the
                # item list is copied because the caller owns it.
                responses[position] = dataclasses.replace(
                    cached, items=list(cached.items), cached=True
                )
                continue
            pending.append((position, key))
            requests.append(
                self.build_request(
                    user, k, mode=mode, seed=seed, scores=scores, alpha=alpha
                )
            )
        if requests:
            served = self.server.serve(requests, snapshot=snapshot)
            for (position, key), response in zip(pending, served):
                responses[position] = response
                if key is not None:
                    # Store a private copy: the caller owns the returned
                    # Response and may mutate its item list.
                    entry = dataclasses.replace(
                        response, items=list(response.items), cached=False
                    )
                    with self._cache_lock:
                        self._cache[key] = entry
                        while len(self._cache) > self.cache_size:
                            self._cache.popitem(last=False)
        return responses  # type: ignore[return-value]

    def cache_footprint(self) -> dict:
        """Byte accounting of the response LRU (best effort — slate
        lists and any attached traces, via
        :func:`repro.serving.profiling.nbytes_of`), for the footprint
        report's cache section."""
        from .profiling import nbytes_of

        with self._cache_lock:
            entries = list(self._cache.values())
        return {
            "entries": len(entries),
            "capacity": self.cache_size,
            "bytes": sum(nbytes_of(response) for response in entries),
        }
