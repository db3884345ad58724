"""Fast greedy MAP inference for DPPs (Chen, Zhang & Zhou, NeurIPS 2018).

The related-work systems the paper cites diversify recommendations by
greedily maximizing ``log det(L_S)``; this module implements the
O(M k^2) incremental-Cholesky version of that greedy algorithm.  In this
reproduction it powers the example applications (generating a diversified
top-k list from a trained model's kernel) and serves as a baseline
post-processing re-ranker to contrast with LkP's in-training approach.

``greedy_map`` also accepts a :class:`~repro.dpp.kernels.LowRankKernel`:
the algorithm only ever touches the kernel's diagonal and one row per
round, and both are inner products of factor rows, so catalog-wide
diversified top-k runs in O(M k (r + k)) without materializing — or even
being handed — the M×M Gram matrix.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .kernels import LowRankKernel

__all__ = [
    "greedy_map",
    "greedy_map_reference",
    "batched_greedy_map_shared",
    "batched_greedy_map_stacked",
]


def greedy_map(
    kernel: np.ndarray | LowRankKernel,
    k: int,
    candidates: np.ndarray | None = None,
    epsilon: float = 1e-10,
) -> list[int]:
    """Greedily select ``k`` items maximizing ``log det(L_S)``.

    Implements the fast greedy algorithm: maintain, for every remaining
    item, the squared Cholesky residual ``d_i^2`` (its marginal determinant
    gain) and the partial Cholesky row ``c_i``, updating both in O(1) per
    item per round.

    Parameters
    ----------
    kernel:
        PSD L-ensemble kernel over the full candidate ground set — either
        a dense matrix or a :class:`LowRankKernel`, whose factor inner
        products supply the diagonal and the per-round row on demand.
    k:
        Number of items to select (the paper's fixed result-list size).
    candidates:
        Optional subset of indices to restrict the selection to.
    epsilon:
        Stop early if the best remaining marginal gain falls below this,
        which mirrors the reference implementation's stopping rule.
    """
    factors: np.ndarray | None = None
    if isinstance(kernel, LowRankKernel):
        factors = kernel.factors
        m = kernel.ground_size
    else:
        kernel = np.asarray(kernel, dtype=np.float64)
        m = kernel.shape[0]
    if candidates is None:
        candidates = np.arange(m)
    else:
        candidates = np.asarray(candidates, dtype=np.int64)
    if not 1 <= k <= candidates.shape[0]:
        raise ValueError(
            f"k must be in [1, {candidates.shape[0]}], got {k}"
        )

    num_candidates = candidates.shape[0]
    if factors is not None:
        candidate_factors = factors[candidates]
        di2 = (candidate_factors**2).sum(axis=1)
    else:
        candidate_factors = None
        di2 = kernel[candidates, candidates].copy()
    # cis[j, i]: j-th Cholesky coefficient of candidate i (row-incremental).
    cis = np.zeros((k, num_candidates), dtype=np.float64)

    selected_local = int(np.argmax(di2))
    selected = [selected_local]
    for round_index in range(1, k):
        last = selected_local
        ci_last = cis[:round_index, last]
        di_last = np.sqrt(max(di2[last], epsilon))
        if candidate_factors is not None:
            row = candidate_factors @ candidate_factors[last]
        else:
            row = kernel[candidates[last], candidates]
        eis = (row - ci_last @ cis[:round_index, :]) / di_last
        cis[round_index, :] = eis
        di2 = di2 - eis**2
        di2[selected] = -np.inf  # never re-pick
        selected_local = int(np.argmax(di2))
        if di2[selected_local] < epsilon:
            break
        selected.append(selected_local)
    return [int(candidates[i]) for i in selected]


def _greedy_rounds(
    di2: np.ndarray,
    row_factor,
    project,
    rank: int,
    k: int,
    epsilon: float,
    seeds: np.ndarray | None = None,
    pins: list | None = None,
    quota: list | None = None,
) -> list[list[int]]:
    """The one greedy loop behind both batched greedy-MAP drivers, in
    factor space.

    ``di2`` is the ``(B, N)`` stack of marginal-gain residuals.  All
    kernels here are low-rank — item ``i`` of request ``b`` is a factor
    row ``b_i ∈ R^r`` — so instead of storing every request's partial
    Cholesky rows (a ``(B, k, N)`` history whose per-round correction
    matmul rereads the whole prefix, O(B·k²·N) traffic over a full run),
    the loop maintains the orthonormal directions ``u_1..u_j ∈ R^r``
    spanning the selected rows.  The classic update

        ``e_i = (L[last, i] - Σ_j c_last,j c_i,j) / d_last``

    collapses exactly to ``e_i = ⟨b_i, u_new⟩`` with
    ``u_new = (b_last - Σ_j ⟨b_last, u_j⟩ u_j) / d_last``: the
    correction becomes an O(B·k·r) Gram–Schmidt step on the tiny
    coefficient state, and the only O(N) work per round is the single
    ``project`` matmul — the same shape the batched sampler pays per
    step.

    ``row_factor(lasts)`` returns the ``(B, r)`` factor rows of the
    per-request last-selected items; ``project(u)`` returns the
    ``(B, N)`` inner products of every item's factor row with each
    request's new direction.  Selection bookkeeping is vectorized: each
    round takes one batched ``argmax`` over the gain stack and masks the
    picks with one fancy-index write.

    Session constraints, each inert when ``None``:

    * ``seeds`` — a zero-padded ``(B, s, r)`` stack of orthonormal
      conditioning directions pre-loaded into the Gram–Schmidt state
      (zero rows are inert); ``di2`` must already be deflated against
      them (the drivers do this).
    * ``pins[b]`` — local ids of force-included items.  They occupy the
      front of request ``b``'s picks and are hard-masked; their
      directions are assumed to be part of ``seeds``.
    * ``quota[b]`` — ``None`` or ``(categories, {category: minimum})``
      with ``categories`` a local ``(N,)`` int array: whenever a
      request's remaining slots are all needed to close quota deficits,
      its argmax is restricted to the deficit categories.

    The per-request Python loops for pins and quotas run only when a
    pin or quota is present.  Early stopping mirrors :func:`greedy_map`:
    a request's very first pick (no pins) is always kept; every later
    pick — quota-restricted or not — needs a gain of at least
    ``epsilon``, so an exhausted rank or an unsatisfiable quota yields a
    partial slate rather than padding with zero-gain items (other
    requests keep running).
    """
    batch, _ = di2.shape
    rows_index = np.arange(batch)
    filled = 0 if seeds is None else seeds.shape[1]
    ortho = np.zeros((batch, filled + k, rank), dtype=np.float64)
    if seeds is not None:
        ortho[:, :filled] = seeds
    picks = np.empty((batch, k), dtype=np.int64)
    counts = np.zeros(batch, dtype=np.int64)
    cat_counts = [Counter() for _ in quota] if quota is not None else []
    if pins is not None:
        for b, pinned in enumerate(pins):
            if pinned is None or len(pinned) == 0:
                continue
            picks[b, : len(pinned)] = pinned
            counts[b] = len(pinned)
            di2[b, pinned] = -np.inf
            if quota is not None and quota[b] is not None:
                cat_counts[b].update(quota[b][0][pinned].tolist())
    active = counts < k
    while active.any():
        lasts = np.argmax(di2, axis=1)
        gains = di2[rows_index, lasts]
        if quota is not None:
            for b in np.flatnonzero(active):
                if quota[b] is None:
                    continue
                categories, minimums = quota[b]
                seen = cat_counts[b]
                deficits = {
                    cat: need - seen[cat]
                    for cat, need in minimums.items()
                    if need > seen[cat]
                }
                if deficits and sum(deficits.values()) >= k - counts[b]:
                    # Every remaining slot is spoken for: restrict the
                    # pick to categories still short of their minimum.
                    allowed = np.isin(categories, list(deficits))
                    row = np.where(allowed, di2[b], -np.inf)
                    lasts[b] = int(np.argmax(row))
                    gains[b] = row[lasts[b]]
        # The first pick of a pin-less request (counts == 0) is kept.
        active &= (gains >= epsilon) | (counts == 0)
        chosen = rows_index[active]
        if chosen.size == 0:
            break
        picks[chosen, counts[chosen]] = lasts[chosen]
        di2[chosen, lasts[chosen]] = -np.inf
        counts[chosen] += 1
        if quota is not None:
            for b in chosen:
                if quota[b] is not None:
                    cat_counts[b][int(quota[b][0][lasts[b]])] += 1
        active &= counts < k
        if not active.any():
            break
        di_last = np.sqrt(np.maximum(gains, epsilon))
        residual = row_factor(lasts)
        if not active.all():
            residual[~active] = 0.0
        if filled:
            previous = ortho[:, :filled]
            overlaps = np.einsum("bjr,br->bj", previous, residual)
            residual = residual - np.einsum("bj,bjr->br", overlaps, previous)
        direction = residual / di_last[:, None]
        ortho[:, filled] = direction
        filled += 1
        di2 -= project(direction) ** 2
    return [picks[b, : counts[b]].tolist() for b in range(batch)]


def _deflate_gains(di2: np.ndarray, projections: np.ndarray) -> np.ndarray:
    """``di2 - Σ_s projections²``, clipped at zero (deflated squared
    norms can dip a few ulp negative)."""
    di2 = di2 - np.einsum("bsn,bsn->bn", projections, projections)
    return np.clip(di2, 0.0, None, out=di2)


def batched_greedy_map_shared(
    diversity_factors: np.ndarray,
    quality: np.ndarray,
    k: int,
    epsilon: float = 1e-10,
    *,
    seeds: np.ndarray | None = None,
    pins: list | None = None,
    quota: list | None = None,
) -> list[list[int]]:
    """Greedy MAP for a batch of kernels sharing one factor matrix ``V``.

    Request ``b``'s kernel is ``L_b = Diag(q_b) V Vᵀ Diag(q_b)`` (Eq. 2);
    the stacked factor matrices are never materialized.  Each round's
    only catalog-sized work is one shared ``(B, r) @ (r, M)`` matmul
    projecting every item onto the round's new Cholesky direction
    (``e_bi = q_bi ⟨v_i, u_b⟩``, see :func:`_greedy_rounds`) — the
    per-round catalog reads that dominate sequential serving are paid
    once per batch instead of once per request.  Matches per-request
    :func:`greedy_map` on a :class:`LowRankKernel` of the same factors,
    with one caveat: when marginal gains are *exactly* tied (e.g.
    perfectly uniform quality over a unit-diagonal catalog), the two
    paths may break the tie differently — each then returns a valid
    greedy solution, just not the same one.

    ``seeds`` (a zero-padded ``(B, s, r)`` stack of orthonormal
    directions: history items already shown, plus the span of pinned
    rows) is projected out of every marginal gain before the first
    round; ``pins`` / ``quota`` constrain the picks (see
    :func:`_greedy_rounds`).
    """
    diversity_factors = np.asarray(diversity_factors, dtype=np.float64)
    quality = np.asarray(quality, dtype=np.float64)
    batch, ground = quality.shape
    if diversity_factors.shape[0] != ground:
        raise ValueError(
            f"factors cover {diversity_factors.shape[0]} items but quality "
            f"has {ground}"
        )
    if not 1 <= k <= ground:
        raise ValueError(f"k must be in [1, {ground}], got {k}")
    rows_index = np.arange(batch)
    di2 = quality**2 * (diversity_factors**2).sum(axis=1)[None, :]
    if seeds is not None:
        projections = np.einsum("bsr,nr->bsn", seeds, diversity_factors)
        projections *= quality[:, None, :]
        di2 = _deflate_gains(di2, projections)

    def row_factor(lasts: np.ndarray) -> np.ndarray:
        return diversity_factors[lasts] * quality[rows_index, lasts][:, None]

    def project(direction: np.ndarray) -> np.ndarray:
        eis = direction @ diversity_factors.T
        eis *= quality
        return eis

    return _greedy_rounds(
        di2,
        row_factor,
        project,
        diversity_factors.shape[1],
        k,
        epsilon,
        seeds=seeds,
        pins=pins,
        quota=quota,
    )


def batched_greedy_map_stacked(
    factor_stack: np.ndarray,
    k: int,
    epsilon: float = 1e-10,
    *,
    seeds: np.ndarray | None = None,
    pins: list | None = None,
    quota: list | None = None,
) -> list[list[int]]:
    """Greedy MAP over an explicit ``(B, N, r)`` per-request factor stack.

    The candidate-slice twin of :func:`batched_greedy_map_shared`: each
    request brings its own (small) gathered ground set and every round is
    a batched ``einsum`` over the stack.  The serving engine hands it
    stacks whose rows are already deflated against the request's
    history, so ``seeds`` there carries only the pin directions.
    """
    factor_stack = np.asarray(factor_stack, dtype=np.float64)
    if factor_stack.ndim != 3:
        raise ValueError(f"expected (B, N, r) factors, got {factor_stack.shape}")
    batch, ground, _ = factor_stack.shape
    if not 1 <= k <= ground:
        raise ValueError(f"k must be in [1, {ground}], got {k}")
    di2 = np.einsum("bnr,bnr->bn", factor_stack, factor_stack)
    if seeds is not None:
        projections = np.einsum("bsr,bnr->bsn", seeds, factor_stack)
        di2 = _deflate_gains(di2, projections)

    def row_factor(lasts: np.ndarray) -> np.ndarray:
        return factor_stack[np.arange(batch), lasts]

    def project(direction: np.ndarray) -> np.ndarray:
        return np.einsum("bnr,br->bn", factor_stack, direction)

    return _greedy_rounds(
        di2,
        row_factor,
        project,
        factor_stack.shape[2],
        k,
        epsilon,
        seeds=seeds,
        pins=pins,
        quota=quota,
    )


def greedy_map_reference(kernel: np.ndarray, k: int) -> list[int]:
    """O(M k^4) textbook greedy via explicit determinants.

    Used only by tests to validate :func:`greedy_map`; recomputes
    ``det(L_{S + {i}})`` from scratch for every candidate each round.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    m = kernel.shape[0]
    selected: list[int] = []
    for _ in range(k):
        best_item, best_det = -1, -np.inf
        for i in range(m):
            if i in selected:
                continue
            trial = selected + [i]
            det = np.linalg.det(kernel[np.ix_(trial, trial)])
            if det > best_det:
                best_det, best_item = det, i
        if best_item < 0 or best_det <= 0:
            break
        selected.append(best_item)
    return selected
