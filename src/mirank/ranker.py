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
import math
from dataclasses import dataclass

import numpy as np

from .configs import ModelParams
from .core import CandidateSet, MirankError, NonFiniteError, Ranking
from .features import extend_features
from .models import (
    advance_entries,
    input_projection,
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
    "rank",
    "rerank_top_n",
]

#: Hard cap on exhaustive search; 8! = 40320 permutations.
MAX_ORACLE_ITEMS = 8


def _finite_gmv(value: float) -> float:
    """``value``; a NaN or infinite expected GMV is a NonFiniteError."""
    if not math.isfinite(value):
        raise NonFiniteError(f"the model gives an expected GMV of {value}")
    return value


@dataclass(frozen=True)
class RankResult:
    """A ranking with its expected GMV, always finite, and the per-position
    probabilities."""

    ranking: Ranking
    expected_gmv: float
    per_position_probabilities: np.ndarray

    def __post_init__(self):
        _finite_gmv(self.expected_gmv)


def _item_probabilities(params: ModelParams, candidates: CandidateSet) -> np.ndarray:
    """Order-independent purchase probability of each candidate (feed-forward models)."""
    if params.variant == "baseline":
        return baseline_probabilities(params, candidates.feature_matrix)
    return score_midnn_batch(params, extend_features(candidates))


def _order_probabilities(params: ModelParams, candidates: CandidateSet, orders: np.ndarray) -> np.ndarray:
    """(Q, T) purchase probabilities at each position of a (Q, T) batch of orders."""
    if params.is_recurrent:
        return sequence_probabilities_batch(params, extend_features(candidates), orders)
    return _item_probabilities(params, candidates)[orders]


def expected_gmv(params: ModelParams, candidates: CandidateSet, ranking: Ranking) -> float:
    """Sum of price times purchase probability along the ranking; NaN or
    infinity is a NonFiniteError."""
    order = np.asarray(ranking.order, dtype=int)
    probs = _order_probabilities(params, candidates, order[None, :])[0]
    return _finite_gmv(float(np.sum(candidates.prices[order] * probs)))


def _descending(scores: np.ndarray, tie_keys: np.ndarray) -> np.ndarray:
    """Indices by descending score, ties by ascending ``tie_keys``, then by
    index. This is the tie rule of every ranking path."""
    return np.lexsort((tie_keys, -scores))


def rank(params: ModelParams, candidates: CandidateSet, k: int = 5, gamma: float = 1.0) -> RankResult:
    """The model's best order of the candidates: the one place where a variant
    picks its search.

    The recurrent models run :func:`beam_search` with beam size k. The
    feed-forward models' probabilities do not depend on the order, so they
    sort by descending price times probability (price^gamma for the
    baseline), ties by ascending item id; this is optimal among all
    permutations under any strictly decreasing position bias. A NaN or
    infinite expected GMV is a NonFiniteError.
    """
    if not 0 <= gamma < np.inf:
        raise MirankError(f"gamma must be finite and nonnegative, got {gamma}")
    if params.is_recurrent:
        return beam_search(params, candidates, k)
    probs = _item_probabilities(params, candidates)
    weights = candidates.prices**gamma if params.variant == "baseline" else candidates.prices
    order = _descending(weights * probs, candidates.ids)
    return RankResult(
        ranking=Ranking(tuple(order)),
        expected_gmv=float((candidates.prices[order] * probs[order]).sum()),
        per_position_probabilities=probs[order],
    )


def beam_search(params: ModelParams, candidates: CandidateSet, k: int) -> RankResult:
    """Top-k beam search over partial rankings for the recurrent models.

    Each step advances every beam entry with each item it has not placed, in
    one batched call, scores those extensions by accumulated expected GMV,
    and keeps the pooled global top-k. Ties break by the lexicographic
    item-id sequence, so runs are reproducible.

    An entry is a row of per-entry arrays: its order and per-position
    probabilities so far, its unplaced items, its rank among the entries' id
    prefixes, its GMV and its LSTM state, plus the hidden states and attention
    representations of its prefix for the attention variant only. Each step
    gathers every row by its parent entry and fills column ``step``, so the
    answer is row 0 of the last step. The kept pairs are read from the pool by
    their flat index.
    """
    if not params.is_recurrent:
        raise MirankError(f"beam_search requires a recurrent model, got {params.variant!r}")
    if len(candidates) < 1:
        raise MirankError("beam_search needs a non-empty candidate set")
    if k < 1:
        raise MirankError(f"beam size must be >= 1, got {k}")
    n = len(candidates)
    feats = extend_features(candidates)
    projected = input_projection(params, feats)
    prices = candidates.prices
    id_ranks = np.argsort(np.argsort(candidates.ids))  # ids ranked 0..n-1
    h_dim = params.config.lstm_hidden
    # Each entry's unplaced items, ascending: the step's pool is every
    # (entry, item) pair of them, in row-major order.
    items = np.arange(n)[None, :]
    # ``prefix_ranks`` orders the entries' item-id prefixes lexicographically
    # (equal prefixes share a rank), which is all the tie rule needs of them.
    prefix_ranks = np.zeros(1, dtype=int)
    gmvs = np.zeros(1)
    hiddens = np.zeros((1, h_dim))
    cells = np.zeros((1, h_dim))
    orders = np.zeros((1, n), dtype=int)
    probs = np.zeros((1, n))
    histories = rep_caches = None
    if params.variant == "mirnn_attention":
        histories = np.zeros((1, n, h_dim))
        rep_caches = np.zeros((1, n, params.config.attn_size))
    for step in range(n):
        step_probs, hidden_new, cell_new, reps_new = advance_entries(
            params, hiddens, cells, histories, rep_caches, step + 1, feats, projected=projected, items=items
        )
        totals = (gmvs[:, None] + prices[items] * step_probs).ravel()
        # Orders the extended id sequences as (prefix, new id) would.
        sequence_keys = (prefix_ranks[:, None] * n + id_ranks[items]).ravel()
        chosen = _descending(totals, sequence_keys)[:k]
        sel_e = chosen // (n - step)
        sel_i = items.ravel()[chosen]
        gmvs = totals[chosen]
        hiddens = hidden_new.reshape(-1, h_dim)[chosen]
        cells = cell_new.reshape(-1, h_dim)[chosen]
        orders = orders[sel_e]
        orders[:, step] = sel_i
        probs = probs[sel_e]
        probs[:, step] = step_probs.ravel()[chosen]
        if histories is not None:
            histories = histories[sel_e]
            histories[:, step] = hiddens
            rep_caches = rep_caches[sel_e]
            rep_caches[:, step] = reps_new.reshape(-1, reps_new.shape[2])[chosen]
        # The kept entries' unplaced items, less the one each just placed.
        items = items[sel_e]
        items = items[items != sel_i[:, None]].reshape(len(chosen), n - step - 1)
        kept_keys = sequence_keys[chosen]
        prefix_ranks = np.searchsorted(np.sort(kept_keys), kept_keys)
    # Entries are kept in tie-rule order, so the first one is the answer.
    return RankResult(
        ranking=Ranking(tuple(orders[0])),
        expected_gmv=float(gmvs[0]),
        per_position_probabilities=probs[0],
    )


def greedy_reference(params: ModelParams, candidates: CandidateSet) -> RankResult:
    """Independent greedy selector: argmax price-times-probability extension
    at each step, recomputing every candidate prefix from scratch.

    Verification twin of beam_search(k=1); shares no incremental state with it.
    """
    if not params.is_recurrent:
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
            key = (-prices[item_idx] * p, candidates.ids[item_idx])
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
    probs = _order_probabilities(params, candidates, orders)
    gmvs = (candidates.prices[orders] * probs).sum(axis=1)
    best_value = _finite_gmv(float(gmvs.max()))
    tied = np.flatnonzero(gmvs == best_value)
    best_row = min(tied, key=lambda row: candidates.ids[orders[row]].tolist())
    return RankResult(
        ranking=Ranking(tuple(orders[best_row])),
        expected_gmv=best_value,
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
    subset = candidates.take(prefix)
    sub_order = rank(params, subset, k, gamma).ranking.order
    reordered = tuple(prefix[j] for j in sub_order)
    return Ranking(reordered + base_ranking.order[n:])
