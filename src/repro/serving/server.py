"""Batched multi-user k-DPP serving.

One :class:`KDPPServer` turns a batch of personalization requests over a
shared :class:`~repro.serving.catalog.ItemCatalog` into recommendation
lists.  Per Eq. 2 a request only reweights the shared factors — its
kernel is ``L_u = Diag(q_u) V Vᵀ Diag(q_u)`` — so the whole batch shares
every catalog-sized computation:

* all dual kernels ``C_u = Vᵀ Diag(q_u²) V`` are one ``(B, M)``-by-table
  matmul (:meth:`ItemCatalog.build_duals`);
* one stacked ``eigh`` factorizes every request's dual;
* one :func:`~repro.dpp.esp.batched_log_esp` produces every Eq. 6
  normalizer, heterogeneous ``k`` included;
* sampling and greedy MAP run vectorized across the batch
  (:func:`~repro.dpp.kdpp.batched_sample_elementary_shared`,
  :func:`~repro.dpp.map_inference.batched_greedy_map_shared`), with each
  request consuming its own seeded RNG stream so a batch reproduces the
  per-user ``KDPP.from_factors(...).sample(rng)`` loop draw for draw.

Request semantics
-----------------
``mode`` is one of:

* ``"sample"`` — an exact k-DPP draw (diversity by randomization);
* ``"map"`` — greedy MAP over the ground set (deterministic);
* ``"topk-rerank"`` — restrict to the request's top ``rerank_pool``
  items by quality, then greedy MAP inside that slice (the classic
  serving pattern of post-hoc DPP re-rankers).

``exclude`` removes items from the ground set by zeroing their quality:
a zero factor row can never be selected and contributes nothing to the
dual kernel, so this is exactly equivalent to deleting the rows — while
keeping every request in the batch the same shape.  ``candidates``
restricts a request to an explicit item slice (the
:class:`~repro.serving.bridge.RecommenderBridge` uses it for
user-specific top-N candidate pools); results are reported in catalog
ids either way.

Session-aware serving
---------------------
Four request fields extend the model to multi-page sessions and
constrained slates; all default to "off".  Requests with and without
them share one group path per catalog layout (full catalog or candidate
slice): history deflation, greedy seeds, pins and quotas apply only to
the members that carry them, so a request gets the same slate whether
it is served alone or beside session requests:

* ``alpha`` — per-request diversity strength.  The effective quality is
  ``q_u^(1/alpha)``: ``alpha=1`` is the paper's Eq. 2 kernel, larger
  values flatten quality so the determinant's diversity term dominates
  (ReAgent's DPP-wrapper knob), smaller values sharpen quality toward
  plain top-k.  A monotone transform, so funnels and rerank pools are
  unchanged — only the kernel trade-off moves.
* ``history`` — items already shown earlier in the session.  They are
  zeroed out of the ground set like exclusions *and* conditioned out of
  the kernel: the low-rank Schur complement of ``L_u`` given a shown
  set A is exactly the kernel of the factor rows deflated by an
  orthonormal basis ``U`` of ``span{v_h : h ∈ A}`` (``B̃ = B(I - UUᵀ)``,
  dual ``C̃ = PCP`` with ``P = I - UUᵀ`` — still r × r, one O(r²h)
  correction per request after the shared batched dual build).  Samples
  and MAP slates are therefore diverse *against the pages the user
  already saw*, not just internally.
* ``pins`` — must-include items (MAP modes only).  They occupy the
  front of the returned list and seed the greedy Gram–Schmidt state, so
  the remaining ``k - |pins|`` picks maximize the determinant *given*
  the pins.
* ``quotas`` / ``categories`` — per-category minimum counts (MAP modes
  only).  The batched greedy loop restricts its argmax to deficit
  categories whenever the remaining slots are all needed to close the
  quotas; the funnel guarantees each quota'd category enough
  positive-quality pool members.

``serve_sequential`` is the PR 2 one-request-at-a-time loop over the
same request semantics — the parity oracle for the tests and the
baseline the serving benchmark measures against.  One caveat: greedy
MAP under *exactly* tied marginal gains (perfectly uniform quality on a
unit-diagonal catalog) may break ties differently on the two paths —
each returns a valid greedy solution.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..dpp.esp import batched_esp_table, batched_log_esp
from ..dpp.kdpp import (
    KDPP,
    batched_sample_elementary_shared,
    batched_sample_elementary_stacked,
    kdpp_spectrum_scale,
    select_eigenvectors_from_esp_table,
)
from ..dpp.kernels import LowRankKernel
from ..dpp.map_inference import (
    batched_greedy_map_shared,
    batched_greedy_map_stacked,
    greedy_map,
)
from ..utils.topk import top_k_indices
from .catalog import CatalogSnapshot, ItemCatalog
from .config import ServingConfig
from .observability import StageRecorder, stage_span

__all__ = [
    "Request",
    "Response",
    "KDPPServer",
    "REQUEST_MODES",
    "validate_request_mode_and_k",
    "effective_request_quality",
    "extend_pool_for_constraints",
]

REQUEST_MODES = ("sample", "map", "topk-rerank")

#: ceiling on ``quality ** (1/alpha)`` — keeps extreme alpha values from
#: overflowing to inf (the kernel only needs quality *ratios*)
ALPHA_QUALITY_CLIP = 1e150


def _as_ids(values, dtype=np.int64) -> np.ndarray | None:
    """``None``/empty → ``None``; otherwise a 1-D int64 id array."""
    if values is None:
        return None
    ids = np.asarray(values, dtype=dtype)
    if ids.size == 0:
        return None
    return ids.reshape(-1)


def _orthonormal_columns(rows: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis (r, s) of the span of ``rows`` (h, r), rank-
    revealing: linearly dependent rows contribute no spurious basis
    vector (a QR would), so conditioning never over-deflates."""
    if rows.size == 0:
        return None
    u, s, _ = np.linalg.svd(rows.T, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return None
    keep = s > max(rows.shape) * np.finfo(np.float64).eps * s[0]
    if not np.any(keep):
        return None
    return np.ascontiguousarray(u[:, keep])


def validate_request_mode_and_k(request: "Request", index: int) -> None:
    """Shared field checks — one source of truth for every serving
    front end (the engine's ``_resolve`` and the sharded funnel)."""
    if request.mode not in REQUEST_MODES:
        raise ValueError(
            f"request {index}: mode must be one of {REQUEST_MODES}, "
            f"got {request.mode!r}"
        )
    if request.k < 1:
        raise ValueError(f"request {index}: k must be positive, got {request.k}")
    if request.rerank_pool is not None and request.rerank_pool < 1:
        raise ValueError(
            f"request {index}: rerank_pool must be positive, got "
            f"{request.rerank_pool}"
        )


def effective_request_quality(
    request: "Request", index: int, num_items: int, check_values: bool = True
) -> np.ndarray:
    """The request's catalog-sized quality with exclusions *and* history
    zeroed (shown items must never re-enter a pool or a slate).

    Shape and exclusion-id bounds are always enforced;
    ``check_values=False`` defers the O(M) finiteness/negativity scan to
    a later ``_resolve`` pass (the sharded funnel uses this so lowered
    requests are not value-scanned twice).
    """
    quality = np.asarray(request.quality, dtype=np.float64)
    if quality.shape != (num_items,):
        raise ValueError(
            f"request {index}: quality shape {quality.shape} does not "
            f"match catalog size {num_items}"
        )
    if check_values and (
        not np.all(np.isfinite(quality)) or np.any(quality < 0)
    ):
        raise ValueError(
            f"request {index}: quality must be finite and non-negative"
        )
    zero = []
    if request.exclude is not None and len(request.exclude) > 0:
        exclude = np.asarray(request.exclude, dtype=np.int64)
        if np.any(exclude < 0) or np.any(exclude >= num_items):
            raise ValueError(
                f"request {index}: exclusion ids must be in [0, {num_items})"
            )
        zero.append(exclude)
    history = _as_ids(request.history)
    if history is not None:
        if np.any(history < 0) or np.any(history >= num_items):
            raise ValueError(
                f"request {index}: history ids must be in [0, {num_items})"
            )
        zero.append(history)
    if zero:
        quality = quality.copy()
        quality[np.concatenate(zero)] = 0.0
    return quality


def extend_pool_for_constraints(
    pool: np.ndarray,
    quality: np.ndarray,
    pins: np.ndarray | None,
    quotas: Mapping[int, int] | None,
    categories: np.ndarray | None,
) -> np.ndarray:
    """Union pins and per-category quota tops into a candidate pool.

    Used wherever serving builds a pool on the caller's behalf (the
    engine's ``topk-rerank`` lowering, the sharded funnel): the pool
    stays the pure quality funnel output — so funnel caches stay
    reusable across constraint changes — and the constraint extras are
    appended after it in deterministic order (pins in request order,
    then quota top-ups by ascending category, each descending quality).
    Explicit caller-provided ``candidates`` are never extended.
    """
    pins = _as_ids(pins)
    if pins is None and not quotas:
        return pool
    pool = np.asarray(pool, dtype=np.int64)
    present = set(pool.tolist())
    extras: list[int] = []
    if pins is not None:
        for pin in pins.tolist():
            if pin not in present:
                extras.append(pin)
                present.add(pin)
    if quotas:
        merged = np.concatenate([pool, np.asarray(extras, dtype=np.int64)])
        for category, need in sorted(quotas.items()):
            in_pool = int(
                np.count_nonzero(
                    (categories[merged] == category) & (quality[merged] > 0)
                )
            )
            if in_pool >= need:
                continue
            mask = (categories == category) & (quality > 0)
            mask[merged] = False
            eligible = np.flatnonzero(mask)
            if eligible.size == 0:
                continue
            order = eligible[
                np.argsort(-quality[eligible], kind="stable")[: need - in_pool]
            ]
            extras.extend(int(item) for item in order)
            merged = np.concatenate([merged, order])
    if not extras:
        return pool
    return np.concatenate([pool, np.asarray(extras, dtype=np.int64)])


@dataclass(frozen=True)
class Request:
    """One user's recommendation request against the shared catalog.

    ``quality`` is the catalog-sized vector of positive per-item quality
    scores ``q_u`` (Eq. 2 / Eq. 13) — typically produced by a trained
    :class:`~repro.models.base.Recommender` through the
    :class:`~repro.serving.bridge.RecommenderBridge`.

    ``user`` is an optional stable requester id.  The engine itself
    ignores it; the sharded funnel's
    :class:`~repro.retrieval.cache.FunnelCache` keys on it, under the
    contract that one ``user`` id maps to one quality vector per catalog
    version (the bridge guarantees this via its score snapshot).

    Session fields (see the module docstring for the semantics):
    ``alpha`` rescales quality to ``q_u^(1/alpha)`` (diversity strength;
    1.0 is the paper's Eq. 2 kernel), ``history`` conditions
    already-shown items out of the kernel, ``pins`` force-includes items
    at the front of a MAP slate, and ``quotas`` (with the catalog-sized
    ``categories`` labeling) imposes per-category minimum counts on a
    MAP slate.  All default to off; :meth:`validate` is the single
    authority on their invariants.

    ``deadline`` is an absolute latency budget in the serving clock's
    domain (the injected micro-batcher clock; ``time.monotonic`` by
    default).  The engine itself ignores it — the resilience layer
    (:mod:`repro.serving.resilience`) degrades a request whose remaining
    budget cannot cover its mode and fails an expired one with
    :class:`~repro.serving.resilience.DeadlineExceeded` instead of
    serving it late.  ``None`` (the default) means unbounded.
    """

    quality: np.ndarray
    k: int
    mode: str = "sample"
    exclude: np.ndarray | None = None
    candidates: np.ndarray | None = None
    seed: int | None = None
    rerank_pool: int | None = None
    user: int | None = None
    alpha: float = 1.0
    history: np.ndarray | None = None
    pins: np.ndarray | None = None
    quotas: Mapping[int, int] | None = None
    categories: np.ndarray | None = None
    deadline: float | None = None

    def validate(self, num_items: int, index: int = 0) -> None:
        """Check every structural field invariant, raising request-
        indexed ``ValueError``s (the quality *values* are scanned
        separately by :func:`effective_request_quality`, which knows
        whether the request is sliced).

        This is the one source of truth for request validation — the
        engine's ``_resolve`` and the sharded funnel's ``_lower`` both
        start here instead of running their own ad-hoc checks.
        """
        validate_request_mode_and_k(self, index)
        if self.deadline is not None and not np.isfinite(float(self.deadline)):
            raise ValueError(
                f"request {index}: deadline must be a finite clock time, "
                f"got {self.deadline}"
            )
        alpha = float(self.alpha)
        if not np.isfinite(alpha) or alpha <= 0:
            raise ValueError(
                f"request {index}: alpha must be a positive finite number, "
                f"got {self.alpha}"
            )
        history = _as_ids(self.history)
        if history is not None and (
            np.any(history < 0) or np.any(history >= num_items)
        ):
            raise ValueError(
                f"request {index}: history ids must be in [0, {num_items})"
            )
        pins = _as_ids(self.pins)
        if pins is not None:
            if self.mode == "sample":
                raise ValueError(
                    f"request {index}: pins require a MAP mode ('map' or "
                    "'topk-rerank'); a sample cannot force-include items"
                )
            if np.any(pins < 0) or np.any(pins >= num_items):
                raise ValueError(
                    f"request {index}: pin ids must be in [0, {num_items})"
                )
            if len(set(pins.tolist())) != pins.shape[0]:
                raise ValueError(f"request {index}: pin ids must be unique")
            if pins.shape[0] > self.k:
                raise ValueError(
                    f"request {index}: {pins.shape[0]} pins exceed k={self.k}"
                )
            exclude = _as_ids(self.exclude)
            if exclude is not None and np.any(np.isin(pins, exclude)):
                raise ValueError(
                    f"request {index}: pins overlap the exclusion set"
                )
            if history is not None and np.any(np.isin(pins, history)):
                raise ValueError(
                    f"request {index}: pins overlap the session history"
                )
            if self.candidates is not None and not np.all(
                np.isin(pins, np.asarray(self.candidates, dtype=np.int64))
            ):
                raise ValueError(
                    f"request {index}: pins must be members of the explicit "
                    "candidate slice"
                )
        if self.quotas:
            if self.mode == "sample":
                raise ValueError(
                    f"request {index}: quotas require a MAP mode ('map' or "
                    "'topk-rerank')"
                )
            if self.categories is None:
                raise ValueError(
                    f"request {index}: quotas need a catalog-sized "
                    "'categories' labeling"
                )
            categories = np.asarray(self.categories)
            if categories.shape != (num_items,) or not np.issubdtype(
                categories.dtype, np.integer
            ):
                raise ValueError(
                    f"request {index}: categories must be an integer array "
                    f"of shape ({num_items},), got shape {categories.shape} "
                    f"dtype {categories.dtype}"
                )
            total = 0
            for category, need in self.quotas.items():
                if int(need) < 1:
                    raise ValueError(
                        f"request {index}: quota minimum for category "
                        f"{category} must be positive, got {need}"
                    )
                total += int(need)
            if total > self.k:
                raise ValueError(
                    f"request {index}: quota minimums sum to {total}, "
                    f"exceeding k={self.k}"
                )


@dataclass(frozen=True)
class Response:
    """Result of one request (immutable — callers and caches share
    instances safely; derive variants with :func:`dataclasses.replace`).

    ``items`` are catalog ids in selection order; pinned items lead.
    ``log_probability`` is the set's k-DPP log-probability under the
    request's personalized kernel — conditioned on the request's
    ``history`` when one was given — and is ``None`` exactly when
    greedy MAP stopped early with fewer than ``k`` items (exhausted
    rank, unsatisfiable quota, or all remaining marginal gains below
    the stopping epsilon); the short ``items`` list is still a valid
    prefix slate.  ``version`` stamps the catalog snapshot the request
    was served against — under live snapshot hot-swaps it tells the
    caller exactly which factor generation produced the list.

    ``degraded`` / ``served_mode`` are the overload stamps (see
    :mod:`repro.serving.resilience`): ``degraded=True`` means queue or
    deadline pressure walked the request down the degradation ladder and
    ``served_mode`` names the rung that actually produced ``items``
    (``mode`` still echoes what the caller asked for).  On the terminal
    ``"quality-topk"`` rung no kernel runs, so ``log_probability`` is
    ``None`` for the same reason as a short greedy slate: there is no
    exact k-DPP probability to report.  ``served_mode=None`` on a
    non-degraded response means "as requested".

    ``trace`` carries the finished per-stage
    :class:`~repro.serving.observability.Trace` when the request was
    sampled for tracing (``ServingConfig.trace_rate``), else ``None``.
    It is diagnostic payload, excluded from equality and repr — two
    responses that served the same slate compare equal whether or not
    one was traced."""

    items: list[int]
    log_probability: float | None
    mode: str
    k: int
    cached: bool = False
    version: int | None = None
    degraded: bool = False
    served_mode: str | None = None
    trace: Any | None = field(default=None, compare=False, repr=False)


@dataclass
class _Resolved:
    """A validated request: zero-quality exclusions/history applied,
    alpha folded into the quality, topk-rerank lowered to MAP over an
    explicit candidate slice, and the history rows' orthonormal ``(r,
    h')`` basis (the conditioning deflation directions) computed once."""

    index: int
    quality: np.ndarray  # catalog-sized effective quality (alpha applied)
    k: int
    mode: str  # "sample" | "map" after lowering
    report_mode: str  # the caller's mode, echoed in the Response
    candidates: np.ndarray | None
    seed: int | None
    history: np.ndarray | None = None
    pins: np.ndarray | None = None
    quotas: Mapping[int, int] | None = None
    categories: np.ndarray | None = None
    history_basis: np.ndarray | None = None


class KDPPServer:
    """Batched k-DPP recommendation engine over one :class:`ItemCatalog`,
    configured with ``config=ServingConfig(...)``."""

    def __init__(
        self, catalog: ItemCatalog, config: ServingConfig | None = None
    ) -> None:
        self.config = config if config is not None else ServingConfig()
        self.catalog = catalog
        self.rerank_pool = self.config.rerank_pool
        # Unseeded requests draw from generators spawned off one entropy
        # source under a lock: numpy Generators are not thread-safe, and
        # the micro-batcher serves batches from worker threads.
        self._seed_sequence = np.random.SeedSequence()
        self._seed_lock = threading.Lock()

    def _pin(self, snapshot: CatalogSnapshot | None) -> CatalogSnapshot:
        """The snapshot a batch serves against, captured exactly once.

        The runtime passes the snapshot each request was *admitted*
        under, so in-flight work survives a concurrent
        :meth:`ItemCatalog.refresh`; direct callers get the catalog's
        current version.
        """
        return snapshot if snapshot is not None else self.catalog.snapshot()

    # ------------------------------------------------------------------
    # Request resolution
    # ------------------------------------------------------------------
    def _resolve(
        self, request: Request, index: int, snap: CatalogSnapshot
    ) -> _Resolved:
        num_items = snap.num_items
        request.validate(num_items, index)
        # The O(M) value scan runs on whatever can reach a kernel: the
        # full vector for full-catalog (and topk-rerank, which ranks the
        # whole vector) requests, but only the candidate slice for
        # explicitly-sliced ones — funnel-lowered requests at catalog
        # scale would otherwise pay two full passes per request to
        # validate entries their k-DPP never reads (the slice scan
        # happens below, once candidates are known).
        sliced = request.candidates is not None and request.mode != "topk-rerank"
        quality = effective_request_quality(
            request, index, num_items, check_values=not sliced
        )
        alpha = float(request.alpha)
        if alpha != 1.0:
            # q^(1/alpha), guarded: negative entries (only reachable on
            # the deferred-scan sliced path) power to nan and fail the
            # slice scan below with the standard quality error.
            with np.errstate(invalid="ignore", over="ignore"):
                quality = np.power(quality, 1.0 / alpha)
            np.minimum(quality, ALPHA_QUALITY_CLIP, out=quality)
        history = _as_ids(request.history)
        pins = _as_ids(request.pins)
        candidates = request.candidates
        mode = request.mode
        local = None  # quality gathered at the candidate slice, once
        if mode == "topk-rerank":
            if candidates is not None:
                raise ValueError(
                    f"request {index}: topk-rerank builds its own candidate "
                    "pool; pass mode='map' to rerank an explicit slice"
                )
            pool = (
                self.rerank_pool if request.rerank_pool is None else request.rerank_pool
            )
            candidates = top_k_indices(quality, max(pool, request.k))
            candidates = extend_pool_for_constraints(
                candidates, quality, pins, request.quotas, request.categories
            )
            local = quality[candidates]
            mode = "map"
        elif candidates is not None:
            candidates = np.asarray(candidates, dtype=np.int64)
            if candidates.ndim != 1 or len(set(candidates.tolist())) != len(candidates):
                raise ValueError(
                    f"request {index}: candidates must be unique item ids"
                )
            if np.any(candidates < 0) or np.any(candidates >= num_items):
                raise ValueError(
                    f"request {index}: candidate ids must be in [0, {num_items})"
                )
            local = quality[candidates]
            if not np.all(np.isfinite(local)) or np.any(local < 0):
                raise ValueError(
                    f"request {index}: quality must be finite and non-negative"
                )
        ground = num_items if candidates is None else candidates.shape[0]
        if request.k > ground:
            raise ValueError(
                f"request {index}: k={request.k} exceeds ground-set size {ground}"
            )
        # A zero-quality item can never be selected, so the *effective*
        # ground set is the positive-quality slice; catching k overruns
        # here turns an opaque downstream eigensolver/ESP failure into a
        # request-indexed error before any batch work starts.
        effective = int(np.count_nonzero(quality if local is None else local))
        if request.k > effective:
            raise ValueError(
                f"request {index}: k={request.k} exceeds the effective "
                f"candidate count {effective} (items with positive quality "
                f"left after exclusions and candidate slicing; ground set "
                f"has {ground})"
            )
        if pins is not None and np.any(quality[pins] <= 0):
            raise ValueError(
                f"request {index}: pins must have positive effective "
                "quality (an excluded or zero-quality item cannot be pinned)"
            )
        return _Resolved(
            index=index,
            quality=quality,
            k=int(request.k),
            mode=mode,
            report_mode=request.mode,
            candidates=candidates,
            seed=request.seed,
            history=history,
            pins=pins,
            quotas=dict(request.quotas) if request.quotas else None,
            categories=(
                np.asarray(request.categories, dtype=np.int64)
                if request.quotas
                else None
            ),
            history_basis=(
                None
                if history is None
                else _orthonormal_columns(snap.take_rows(history))
            ),
        )

    def _request_rng(self, resolved: _Resolved) -> np.random.Generator:
        if resolved.seed is None:
            with self._seed_lock:
                child = self._seed_sequence.spawn(1)[0]
            return np.random.default_rng(child)
        return np.random.default_rng(resolved.seed)

    # ------------------------------------------------------------------
    # Batched serving
    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Sequence[Request],
        snapshot: CatalogSnapshot | None = None,
        stages: StageRecorder | None = None,
    ) -> list[Response]:
        """Serve a batch of requests with shared catalog-scale work.

        ``snapshot`` pins the batch to one published catalog version
        (default: the current one); every response is stamped with it.
        ``stages`` (optional, wired by the resilience layer when the
        batch holds a traced request) collects the engine's batch-phase
        spans — resolve / dual_build / eigh / normalizer / selection /
        emit — through the recorder's injected clock.
        """
        snap = self._pin(snapshot)
        with stage_span(stages, "resolve"):
            resolved = [
                self._resolve(request, i, snap)
                for i, request in enumerate(requests)
            ]
        responses: list[Response | None] = [None] * len(resolved)
        groups: dict[tuple, list[_Resolved]] = {}
        for item in resolved:
            ground = (
                snap.num_items if item.candidates is None else item.candidates.shape[0]
            )
            key = (item.candidates is None, ground, item.k, item.mode)
            groups.setdefault(key, []).append(item)
        for (is_full, _, k, mode), members in groups.items():
            if is_full:
                self._serve_full_group(members, k, mode, responses, snap, stages)
            else:
                self._serve_sliced_group(members, k, mode, responses, snap, stages)
        return responses  # type: ignore[return-value]

    def _log_normalizers(
        self, eigenvalues: np.ndarray, members, k: int, mode: str
    ) -> np.ndarray:
        """Batched Eq. 6 normalizers, mirroring ``KDPP.from_factors``.

        Sample mode enforces the k-DPP's rank requirement with the same
        ``ValueError`` the per-request constructor raises; MAP mode
        tolerates deficient spectra (the greedy selection simply stops
        early, exactly like the sequential loop) and reports ``-inf``.
        """
        if k <= eigenvalues.shape[1]:
            log_normalizers = batched_log_esp(eigenvalues, k)
        else:
            log_normalizers = np.full(len(members), -np.inf)
        if mode == "sample" and not np.all(np.isfinite(log_normalizers)):
            bad = members[int(np.flatnonzero(~np.isfinite(log_normalizers))[0])]
            hint = (
                " (history conditioning removes one eigenvalue per "
                "independent shown item)"
                if bad.history is not None
                else ""
            )
            raise ValueError(
                f"request {bad.index}: factor rank is below k={k} (e_k of "
                "the dual spectrum is 0); a k-DPP needs at least k nonzero "
                f"eigenvalues{hint}"
            )
        return log_normalizers

    def _phase1_coefficients(
        self,
        eigenvalues: np.ndarray,
        dual_vectors: np.ndarray,
        k: int,
        rngs: list[np.random.Generator],
    ) -> np.ndarray:
        """Batched phase 1: pick k dual eigenvectors per request and
        assemble the ``(B, r, k)`` lift coefficient stack
        ``W_b = Ĉ_b[:, chosen] / sqrt(λ_chosen)``.

        The ESP tables for every request are built in one vectorized
        recursion; the backward walks consume each request's own RNG
        stream, matching the per-user sampler exactly.
        """
        batch = eigenvalues.shape[0]
        scales = np.array(
            [kdpp_spectrum_scale(eigenvalues[b], k) for b in range(batch)]
        )
        scaled = eigenvalues / scales[:, None]
        tables = batched_esp_table(scaled, k)
        chosen = np.array(
            [
                select_eigenvectors_from_esp_table(scaled[b], tables[b], k, rngs[b])
                for b in range(batch)
            ],
            dtype=np.int64,
        )
        selected = np.take_along_axis(eigenvalues, chosen, axis=1)
        if np.any(selected <= 0):  # pragma: no cover - unreachable: zero
            # eigenvalues have zero inclusion probability in the walk
            raise RuntimeError("phase 1 selected a zero eigenvalue")
        coefficients = np.take_along_axis(dual_vectors, chosen[:, None, :], axis=2)
        return coefficients / np.sqrt(selected)[:, None, :]

    def _group_spectra(
        self,
        members: list[_Resolved],
        quality: np.ndarray,
        snap: CatalogSnapshot,
        stages: StageRecorder | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dual spectra for a full-catalog request group.

        Constant-quality requests (``q_u = c``) with no history are
        served straight from the catalog's version-cached spectrum —
        ``C_u = c² VᵀV``, so the cached eigenvectors apply verbatim and
        the eigenvalues only rescale.  The cached spectrum is
        unconditioned, so it never serves a member with history.
        Everything else goes through the batched dual build (one matmul
        against the outer-product table), an O(r²h) per-member deflation
        ``C̃ = (I-UUᵀ) C (I-UUᵀ)`` for history conditioning, and one
        stacked ``eigh``.  The eigenvectors of ``C̃`` with positive
        eigenvalues lie in the deflated subspace, so the unchanged
        projector samplers draw from the conditional k-DPP as-is.
        """
        batch, _ = quality.shape
        rank = snap.rank
        uniform_scale = np.full(batch, -1.0)
        for b, member in enumerate(members):
            first = quality[b, 0]
            if (
                member.history is None
                and first > 0
                and np.all(quality[b] == first)
            ):
                uniform_scale[b] = first
        eigenvalues = np.empty((batch, rank))
        dual_vectors = np.empty((batch, rank, rank))
        uniform = uniform_scale > 0
        if np.any(uniform):
            cached_values, cached_vectors = snap.dual_spectrum()
            scales = uniform_scale[uniform]
            eigenvalues[uniform] = scales[:, None] ** 2 * cached_values
            dual_vectors[uniform] = cached_vectors
        general = np.flatnonzero(~uniform)
        if general.size:
            with stage_span(stages, "dual_build"):
                duals = snap.build_duals(quality[general] ** 2)
                for row, b in enumerate(general):
                    basis = members[b].history_basis
                    if basis is not None:
                        correction = duals[row] @ basis
                        duals[row] -= correction @ basis.T
                        duals[row] -= basis @ (
                            correction.T - (basis.T @ correction) @ basis.T
                        )
            with stage_span(stages, "eigh"):
                values, vectors = np.linalg.eigh(duals)
            eigenvalues[general] = np.clip(values, 0.0, None)
            dual_vectors[general] = vectors
        return eigenvalues, dual_vectors

    def _group_log_probabilities(
        self,
        factor_rows: np.ndarray,
        log_normalizers: np.ndarray,
    ) -> np.ndarray:
        """``log P_k(S_b) = log det(L_{S_b}) - log Z_k`` for a ``(B, k, r)``
        stack of selected factor rows, via one stacked ``slogdet``."""
        grams = np.matmul(factor_rows, np.swapaxes(factor_rows, 1, 2))
        signs, logdets = np.linalg.slogdet(grams)
        logdets = np.where(signs > 0, logdets, -np.inf)
        return logdets - log_normalizers

    def _serve_full_group(
        self,
        members: list[_Resolved],
        k: int,
        mode: str,
        responses: list,
        snap: CatalogSnapshot,
        stages: StageRecorder | None = None,
    ) -> None:
        factors = snap.factors
        quality = np.stack([member.quality for member in members])
        eigenvalues, dual_vectors = self._group_spectra(
            members, quality, snap, stages
        )
        with stage_span(stages, "normalizer"):
            log_normalizers = self._log_normalizers(eigenvalues, members, k, mode)
        with stage_span(stages, "selection"):
            if mode == "sample":
                rngs = [self._request_rng(member) for member in members]
                coefficients = self._phase1_coefficients(
                    eigenvalues, dual_vectors, k, rngs
                )
                samples = batched_sample_elementary_shared(
                    factors,
                    quality,
                    coefficients,
                    rngs,
                    gram_products=snap.gram_products(),
                )
            else:
                seeds, pins, quota = self._session_map_inputs(members, snap)
                samples = batched_greedy_map_shared(
                    factors, quality, k, seeds=seeds, pins=pins, quota=quota
                )
        with stage_span(stages, "emit"):
            self._emit(
                members, samples, log_normalizers, quality, None, k, responses, snap
            )

    def _serve_sliced_group(
        self,
        members: list[_Resolved],
        k: int,
        mode: str,
        responses: list,
        snap: CatalogSnapshot,
        stages: StageRecorder | None = None,
    ) -> None:
        """The candidate-slice group path.  Members with history get
        their factor stack rows deflated against the history span
        (``b̃_i = b_i(I - UUᵀ)``, the low-rank Schur complement of
        conditioning); stacked duals, normalizers, projector sampling
        and greedy MAP then run over the stack as-is."""
        with stage_span(stages, "dual_build"):
            candidates = np.stack([member.candidates for member in members])
            local_quality = np.stack(
                [member.quality[member.candidates] for member in members]
            )
            stack = local_quality[:, :, None] * snap.take_rows(candidates)
            for b, member in enumerate(members):
                basis = member.history_basis
                if basis is not None:
                    stack[b] -= (stack[b] @ basis) @ basis.T
            duals = np.matmul(np.swapaxes(stack, 1, 2), stack)
        with stage_span(stages, "eigh"):
            eigenvalues, dual_vectors = np.linalg.eigh(duals)
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        with stage_span(stages, "normalizer"):
            log_normalizers = self._log_normalizers(eigenvalues, members, k, mode)
        with stage_span(stages, "selection"):
            if mode == "sample":
                rngs = [self._request_rng(member) for member in members]
                coefficients = self._phase1_coefficients(
                    eigenvalues, dual_vectors, k, rngs
                )
                bases = np.matmul(stack, coefficients)
                samples = batched_sample_elementary_stacked(bases, rngs)
            else:
                seeds, pins, quota = self._session_map_inputs(
                    members, snap, stack=stack
                )
                samples = batched_greedy_map_stacked(
                    stack, k, seeds=seeds, pins=pins, quota=quota
                )
        with stage_span(stages, "emit"):
            self._emit(
                members, samples, log_normalizers, None, stack, k, responses, snap
            )

    # ------------------------------------------------------------------
    # Constrained greedy MAP inputs (history seeds, pins, quotas)
    # ------------------------------------------------------------------
    def _local_pins(self, member: _Resolved) -> np.ndarray | None:
        """The member's pins as local ground-set ids (positions inside
        its candidate slice when one exists, catalog ids otherwise)."""
        if member.pins is None:
            return None
        if member.candidates is None:
            return member.pins
        position = {int(item): i for i, item in enumerate(member.candidates)}
        return np.array(
            [position[int(pin)] for pin in member.pins], dtype=np.int64
        )

    def _session_map_inputs(
        self,
        members: list[_Resolved],
        snap: CatalogSnapshot,
        stack: np.ndarray | None = None,
    ) -> tuple[np.ndarray | None, list | None, list | None]:
        """The greedy driver's ``seeds`` / ``pins`` / ``quota`` for one
        MAP group: zero-padded seed directions, per-member local pins
        and quota specs, each ``None`` when no member needs it.

        On the full-catalog path (``stack=None``) each member's seeds
        span its history *and* pin rows (both from the shared factors);
        on the sliced path the stack rows are already history-deflated,
        so the seeds span only the (deflated) pinned rows.
        """
        if not any(
            member.pins is not None
            or member.quotas
            or (stack is None and member.history_basis is not None)
            for member in members
        ):
            return None, None, None
        bases: list[np.ndarray | None] = []
        pins: list[np.ndarray | None] = []
        quota: list[tuple | None] = []
        for b, member in enumerate(members):
            local_pins = self._local_pins(member)
            pins.append(local_pins)
            if local_pins is None:
                basis = member.history_basis if stack is None else None
            elif stack is not None:
                basis = _orthonormal_columns(stack[b, local_pins])
            else:
                rows = [snap.take_rows(member.pins)]
                if member.history is not None:
                    rows.insert(0, snap.take_rows(member.history))
                basis = _orthonormal_columns(np.concatenate(rows))
            bases.append(basis)
            if member.quotas:
                categories = member.categories
                if member.candidates is not None:
                    categories = categories[member.candidates]
                quota.append((categories, member.quotas))
            else:
                quota.append(None)
        widths = [0 if basis is None else basis.shape[1] for basis in bases]
        seeds = None
        if any(widths):
            seeds = np.zeros(
                (len(members), max(widths), snap.rank), dtype=np.float64
            )
            for b, basis in enumerate(bases):
                if basis is not None:
                    seeds[b, : basis.shape[1]] = basis.T
        return (
            seeds,
            pins if any(p is not None for p in pins) else None,
            quota if any(q is not None for q in quota) else None,
        )

    def _emit(
        self,
        members: list[_Resolved],
        samples: list[list[int]],
        log_normalizers: np.ndarray,
        quality: np.ndarray | None,
        stack: np.ndarray | None,
        k: int,
        responses: list,
        snap: CatalogSnapshot,
    ) -> None:
        """Attach log-probabilities and map local picks to catalog ids.

        On the full-catalog path (``stack=None``) the selected rows of
        members with history are deflated by their history basis before
        the stacked ``slogdet``, so reported probabilities are those of
        the history-*conditioned* kernel, matching the conditioned
        normalizers.  Sliced groups pass an already-deflated ``stack``.
        """
        complete = [
            b
            for b, sample in enumerate(samples)
            if len(sample) == k and np.isfinite(log_normalizers[b])
        ]
        log_probabilities: dict[int, float] = {}
        if complete:
            picks = np.array([samples[b] for b in complete], dtype=np.int64)
            if stack is None:
                rows = snap.factors[picks] * quality[complete][
                    np.arange(len(complete))[:, None], picks
                ][:, :, None]
                for j, b in enumerate(complete):
                    basis = members[b].history_basis
                    if basis is not None:
                        rows[j] -= (rows[j] @ basis) @ basis.T
            else:
                rows = stack[np.asarray(complete)[:, None], picks]
            values = self._group_log_probabilities(rows, log_normalizers[complete])
            log_probabilities = dict(zip(complete, values))
        for b, member in enumerate(members):
            local = samples[b]
            if member.candidates is None:
                items = [int(i) for i in local]
            else:
                items = [int(member.candidates[i]) for i in local]
            value = log_probabilities.get(b)
            responses[member.index] = Response(
                items=items,
                log_probability=None if value is None else float(value),
                mode=member.report_mode,
                k=member.k,
                version=snap.version,
            )

    # ------------------------------------------------------------------
    # Sequential reference (the PR 2 loop)
    # ------------------------------------------------------------------
    def serve_sequential(
        self,
        requests: Sequence[Request],
        snapshot: CatalogSnapshot | None = None,
    ) -> list[Response]:
        """One ``KDPP.from_factors`` / ``greedy_map`` per request.

        This is exactly the serving loop PR 2 made fast for a *single*
        request — rebuild the low-rank kernel, eigendecompose its dual,
        sample or rerank — repeated per request with no shared work.  It
        is both the benchmark baseline and the parity oracle: for seeded
        requests, :meth:`serve` must return identical items.
        """
        snap = self._pin(snapshot)
        responses: list[Response] = []
        for i, request in enumerate(requests):
            member = self._resolve(request, i, snap)
            if member.candidates is None:
                factors = member.quality[:, None] * snap.factors
            else:
                factors = (
                    member.quality[member.candidates][:, None]
                    * snap.take_rows(member.candidates)
                )
            basis = member.history_basis
            if basis is not None:
                # Primal deflation — deliberately a different route than
                # the batched dual deflation, so the two paths cross-
                # check the conditioning math, not just each other.
                factors = factors - (factors @ basis) @ basis.T
            lowrank = LowRankKernel(factors)
            if member.mode == "sample":
                dpp = KDPP.from_factors(lowrank, member.k)
                local = dpp.sample(self._request_rng(member))
                log_probability = dpp.log_subset_probability(local)
            else:
                if member.pins is None and not member.quotas:
                    local = greedy_map(lowrank, member.k)
                else:
                    local_pins = self._local_pins(member)
                    seeds = None
                    if local_pins is not None:
                        pin_basis = _orthonormal_columns(factors[local_pins])
                        if pin_basis is not None:
                            seeds = pin_basis.T[None]
                    quota = None
                    if member.quotas:
                        categories = member.categories
                        if member.candidates is not None:
                            categories = categories[member.candidates]
                        quota = [(categories, member.quotas)]
                    local = batched_greedy_map_stacked(
                        factors[None],
                        member.k,
                        seeds=seeds,
                        pins=[local_pins],
                        quota=quota,
                    )[0]
                if len(local) == member.k:
                    dpp = KDPP.from_factors(lowrank, member.k)
                    log_probability = dpp.log_subset_probability(local)
                else:
                    log_probability = None
            if member.candidates is None:
                items = [int(item) for item in local]
            else:
                items = [int(member.candidates[item]) for item in local]
            responses.append(
                Response(
                    items=items,
                    log_probability=log_probability,
                    mode=member.report_mode,
                    k=member.k,
                    version=snap.version,
                )
            )
        return responses
