"""Permutation search for maximum expected GMV.

The expected GMV of an order is the sum over positions of price times the
model's purchase probability at that position. The feed-forward model's
probabilities ignore order, so descending price-times-probability sort is
optimal under any decreasing position bias; the recurrent models condition
on the prefix, so the search runs beam search over partial rankings, with an
exhaustive oracle and an independent greedy reference for verification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .configs import ModelParams
from .core import CandidateSet, MirankError, Ranking
from .features import extend_features
from .models import (
    advance_entries,
    baseline_probabilities,
    score_midnn_batch,
    sequence_probabilities,
    sequence_probabilities_batch,
)

__all__ = [
    "RankResult",
    "beam_search",
    "exhaustive_oracle",
    "expected_gmv",
    "greedy_reference",
    "rank_by_baseline",
    "rank_by_sort",
    "rerank_top_n",
]

#: Hard cap on exhaustive search; 8! = 40320 permutations.
MAX_ORACLE_ITEMS = 8


@dataclass(frozen=True)
class RankResult:
    """A ranking with its expected GMV and the per-position probabilities."""

    ranking: Ranking
    expected_gmv: float
    per_position_probabilities: np.ndarray


def _order_probabilities(params: ModelParams, candidates: CandidateSet, order) -> np.ndarray:
    """Model probability at each position of the given order."""
    if params.variant == "baseline":
        return baseline_probabilities(params, candidates.feature_matrix)[np.asarray(order, dtype=int)]
    feats = extend_features(candidates)
    if params.variant == "midnn":
        return score_midnn_batch(params, feats)[np.asarray(order, dtype=int)]
    return sequence_probabilities(params, feats, order)


def expected_gmv(params: ModelParams, candidates: CandidateSet, ranking: Ranking) -> float:
    """Sum of price times purchase probability along the ranking."""
    order = np.asarray(ranking.order, dtype=int)
    probs = _order_probabilities(params, candidates, order)
    return float(np.sum(candidates.prices[order] * probs))


def rank_by_sort(params: ModelParams, candidates: CandidateSet) -> RankResult:
    """Descending price-times-probability order for the feed-forward model.

    Ties break by ascending item id. Optimal among all permutations under any
    strictly decreasing position bias, because the probabilities do not
    depend on the order.
    """
    if params.variant != "midnn":
        raise MirankError(f"rank_by_sort requires a midnn model, got {params.variant!r}")
    probs = score_midnn_batch(params, extend_features(candidates))
    scores = candidates.prices * probs
    ids = [item.id for item in candidates.items]
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], ids[i]))
    ranking = Ranking(tuple(order))
    return RankResult(
        ranking=ranking,
        expected_gmv=float(scores[order].sum()),
        per_position_probabilities=probs[order],
    )


def rank_by_baseline(params: ModelParams, candidates: CandidateSet, gamma: float = 1.0) -> RankResult:
    """Descending price^gamma times local-feature probability; ties by item id."""
    if params.variant != "baseline":
        raise MirankError(f"rank_by_baseline requires a baseline model, got {params.variant!r}")
    probs = baseline_probabilities(params, candidates.feature_matrix)
    scores = candidates.prices**gamma * probs
    ids = [item.id for item in candidates.items]
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], ids[i]))
    ranking = Ranking(tuple(order))
    return RankResult(
        ranking=ranking,
        expected_gmv=float((candidates.prices[order] * probs[order]).sum()),
        per_position_probabilities=probs[order],
    )


def _id_sequence(candidates: CandidateSet, order) -> tuple[int, ...]:
    return tuple(candidates.items[i].id for i in order)


def beam_search(params: ModelParams, candidates: CandidateSet, k: int) -> RankResult:
    """Top-k beam search over partial rankings for the recurrent models.

    Each step expands every beam entry with every unused item in one batched
    call, scores the extensions by accumulated expected GMV, and keeps the
    pooled global top-k. Ties in the top-k and in the final selection break
    by the lexicographic item-id sequence, so runs are reproducible.
    """
    if params.variant not in ("mirnn", "mirnn_attention"):
        raise MirankError(f"beam_search requires a recurrent model, got {params.variant!r}")
    if len(candidates) < 1:
        raise MirankError("beam_search needs a non-empty candidate set")
    if k < 1:
        raise MirankError(f"beam size must be >= 1, got {k}")
    n = len(candidates)
    feats = extend_features(candidates)
    prices = candidates.prices
    ids = [item.id for item in candidates.items]
    h_dim = params.config.lstm_hidden
    with_attention = params.variant == "mirnn_attention"
    # Per-entry state lives in stacked arrays indexed by entry; the order
    # prefixes, per-position probabilities, and id-sequence tie keys stay as
    # plain tuples per entry.
    orders: list[tuple[int, ...]] = [()]
    prob_lists: list[tuple[float, ...]] = [()]
    prefix_ids: list[tuple[int, ...]] = [()]
    masks = np.ones((1, n), dtype=bool)
    gmvs = np.zeros(1)
    hiddens = np.zeros((1, h_dim))
    cells = np.zeros((1, h_dim))
    histories = np.zeros((1, 0, h_dim))
    rep_caches = np.zeros((1, 0, params.config.attn_size)) if with_attention else None
    for step in range(n):
        step_probs, hidden_new, cell_new, reps_new = advance_entries(
            params, hiddens, cells, histories, rep_caches, step + 1, feats
        )
        totals = gmvs[:, None] + prices[None, :] * step_probs
        pool = [
            (-totals[e, i], prefix_ids[e], ids[i], e, i)
            for e, i in zip(*np.nonzero(masks))
        ]
        pool.sort()
        chosen = pool[:k]
        sel_e = np.array([entry[3] for entry in chosen])
        sel_i = np.array([entry[4] for entry in chosen])
        picked_hidden = hidden_new[sel_e, sel_i]
        gmvs = totals[sel_e, sel_i]
        hiddens = picked_hidden
        cells = cell_new[sel_e, sel_i]
        histories = np.concatenate([histories[sel_e], picked_hidden[:, None, :]], axis=1)
        if with_attention:
            rep_caches = np.concatenate(
                [rep_caches[sel_e], reps_new[sel_e, sel_i][:, None, :]], axis=1
            )
        masks = masks[sel_e].copy()
        masks[np.arange(len(chosen)), sel_i] = False
        orders = [orders[e] + (int(i),) for e, i in zip(sel_e, sel_i)]
        prob_lists = [
            prob_lists[e] + (float(step_probs[e, i]),) for e, i in zip(sel_e, sel_i)
        ]
        prefix_ids = [pre + (new_id,) for _, pre, new_id, _, _ in chosen]
    best = min(range(len(orders)), key=lambda e: (-gmvs[e], prefix_ids[e]))
    return RankResult(
        ranking=Ranking(orders[best]),
        expected_gmv=float(gmvs[best]),
        per_position_probabilities=np.array(prob_lists[best]),
    )


def greedy_reference(params: ModelParams, candidates: CandidateSet) -> RankResult:
    """Independent greedy selector: argmax price-times-probability extension
    at each step, recomputing every candidate prefix from scratch.

    Verification twin of beam_search(k=1); shares no incremental state with it.
    """
    if params.variant not in ("mirnn", "mirnn_attention"):
        raise MirankError(f"greedy_reference requires a recurrent model, got {params.variant!r}")
    n = len(candidates)
    feats = extend_features(candidates)
    prices = candidates.prices
    order: list[int] = []
    probs: list[float] = []
    for _ in range(n):
        unused = [i for i in range(n) if i not in order]
        best = None
        for item_idx in unused:
            trial = order + [item_idx]
            p = float(sequence_probabilities(params, feats, trial)[-1])
            key = (-prices[item_idx] * p, candidates.items[item_idx].id)
            if best is None or key < best[0]:
                best = (key, item_idx, p)
        order.append(best[1])
        probs.append(best[2])
    gmv = float(np.sum(prices[order] * np.array(probs)))
    return RankResult(
        ranking=Ranking(tuple(order)),
        expected_gmv=gmv,
        per_position_probabilities=np.array(probs),
    )


def exhaustive_oracle(params: ModelParams, candidates: CandidateSet) -> RankResult:
    """Evaluate every permutation and return the maximum expected GMV.

    Guard-railed to N <= 8. Ties break by the lexicographic item-id sequence.
    """
    n = len(candidates)
    if n > MAX_ORACLE_ITEMS:
        raise MirankError(f"exhaustive oracle is limited to {MAX_ORACLE_ITEMS} items, got {n}")
    orders = np.array(list(itertools.permutations(range(n))), dtype=int)
    prices = candidates.prices
    if params.variant in ("baseline", "midnn"):
        item_probs = _order_probabilities(params, candidates, np.arange(n))
        probs = item_probs[orders]
    else:
        feats = extend_features(candidates)
        probs = sequence_probabilities_batch(params, feats, orders)
    gmvs = (prices[orders] * probs).sum(axis=1)
    best_value = gmvs.max()
    tied = np.flatnonzero(gmvs == best_value)
    best_row = min(tied, key=lambda row: _id_sequence(candidates, orders[row]))
    return RankResult(
        ranking=Ranking(tuple(orders[best_row])),
        expected_gmv=float(best_value),
        per_position_probabilities=probs[best_row],
    )


def rerank_top_n(
    params: ModelParams,
    base_ranking: Ranking,
    candidates: CandidateSet,
    n: int,
    k: int = 5,
    gamma: float = 1.0,
) -> Ranking:
    """Re-order the top-n prefix of a base ranking with the chosen model.

    The global feature extension for the reranked items is computed over the
    top-n subset only; positions after n keep the base order.
    """
    if n < 1:
        raise MirankError(f"rerank size must be >= 1, got {n}")
    if n > len(candidates):
        raise MirankError(
            f"rerank size {n} exceeds the candidate set size {len(candidates)}"
        )
    prefix = base_ranking.order[:n]
    if n == 1:
        return base_ranking
    subset = CandidateSet(tuple(candidates.items[i] for i in prefix))
    if params.variant == "midnn":
        sub_order = rank_by_sort(params, subset).ranking.order
    elif params.variant == "baseline":
        sub_order = rank_by_baseline(params, subset, gamma).ranking.order
    else:
        sub_order = beam_search(params, subset, k).ranking.order
    reordered = tuple(prefix[j] for j in sub_order)
    return Ranking(reordered + base_ranking.order[n:])
