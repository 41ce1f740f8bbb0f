"""The four scoring policies behind one purchase-probability interface.

``baseline`` is an MLP over local features only, scored as price^gamma * p.
``midnn`` is the same architecture over the global feature extension; its
probabilities depend on the candidate set but not on display order.
``mirnn`` and ``mirnn_attention`` are sequential: the probability at each
position conditions on the items ranked before it, advanced one position at
a time through a value-semantics SequenceState so beam search can branch
states without recomputation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .configs import ModelConfig, ModelParams
from .core import CandidateSet, Item, MirankError, make_rng
from . import nn
from .nn.attention import position_row, softmax
from .nn.train import init_blocks

__all__ = [
    "ModelConfig",
    "ModelParams",
    "SequenceState",
    "StepExpansion",
    "advance_entries",
    "advance_sequence",
    "advance_sequence_batch",
    "branch_state",
    "init_model",
    "initial_state",
    "logged_forward",
    "score_baseline",
    "score_baseline_batch",
    "score_midnn",
    "score_midnn_batch",
    "sequence_attention_weights",
    "sequence_probabilities",
    "sequence_probabilities_batch",
]


def init_model(variant: str, config: ModelConfig, seed: int) -> ModelParams:
    """Seed-deterministic fresh parameters for a variant."""
    return ModelParams(variant=variant, config=config, blocks=init_blocks(variant, config, make_rng(seed)))


def _require_variant(params: ModelParams, allowed: tuple[str, ...]) -> None:
    if params.variant not in allowed:
        raise MirankError(
            f"operation requires a model in {allowed}, got {params.variant!r}"
        )


# ---------------------------------------------------------------------------
# Feed-forward scoring


def score_midnn(params: ModelParams, extended: np.ndarray) -> float:
    """Purchase probability from one extended feature row; order-independent."""
    _require_variant(params, ("midnn",))
    return nn.mlp_forward(params.blocks, extended)


def score_midnn_batch(params: ModelParams, extended: np.ndarray) -> np.ndarray:
    _require_variant(params, ("midnn",))
    probs, _ = nn.mlp_forward_batch(params.blocks, extended)
    return probs


def score_baseline(params: ModelParams, item: Item, gamma: float) -> float:
    """Ranking score price^gamma * p(item) with p from local features only."""
    _require_variant(params, ("baseline",))
    if gamma < 0:
        raise MirankError(f"gamma must be nonnegative, got {gamma}")
    return item.price**gamma * nn.mlp_forward(params.blocks, item.local_features)


def score_baseline_batch(params: ModelParams, candidates: CandidateSet, gamma: float) -> np.ndarray:
    _require_variant(params, ("baseline",))
    if gamma < 0:
        raise MirankError(f"gamma must be nonnegative, got {gamma}")
    probs, _ = nn.mlp_forward_batch(params.blocks, candidates.feature_matrix)
    return candidates.prices**gamma * probs


def baseline_probabilities(params: ModelParams, local: np.ndarray) -> np.ndarray:
    """Purchase probabilities from (n, d) local feature rows; order-independent."""
    _require_variant(params, ("baseline",))
    probs, _ = nn.mlp_forward_batch(params.blocks, local)
    return probs


# ---------------------------------------------------------------------------
# Sequential scoring


@dataclass(frozen=True)
class SequenceState:
    """Recurrent state after ranking ``position - 1`` items; value semantics.

    Arrays are never mutated after construction, so branching two different
    continuations from one state is safe.
    """

    hidden: np.ndarray
    cell: np.ndarray
    hidden_history: np.ndarray  # (position - 1, H)
    rep_cache: np.ndarray | None  # (position - 1, A), attention variant only
    position: int  # next 1-based position


def initial_state(params: ModelParams) -> SequenceState:
    _require_variant(params, ("mirnn", "mirnn_attention"))
    h = params.config.lstm_hidden
    rep = (
        np.zeros((0, params.config.attn_size))
        if params.variant == "mirnn_attention"
        else None
    )
    return SequenceState(
        hidden=np.zeros(h),
        cell=np.zeros(h),
        hidden_history=np.zeros((0, h)),
        rep_cache=rep,
        position=1,
    )


def advance_sequence(
    params: ModelParams, state: SequenceState, extended: np.ndarray
) -> tuple[float, SequenceState]:
    """Place one item at the state's position: one LSTM step plus, for the
    attention variant, the context over the hidden history.

    Returns (purchase probability, advanced state); the input state is not
    modified. At position 1 the attention context is the zero vector, so the
    attention logit degrades to the plain recurrent one.
    """
    probs, expansion = advance_sequence_batch(params, state, np.asarray(extended)[None, :])
    return float(probs[0]), branch_state(state, expansion, 0)


@dataclass(frozen=True)
class StepExpansion:
    """Batched results of advancing several candidate items from one state."""

    hidden: np.ndarray  # (M, H)
    cell: np.ndarray  # (M, H)
    reps: np.ndarray | None  # (M, A) for the attention variant


def advance_sequence_batch(
    params: ModelParams, state: SequenceState, extended: np.ndarray
) -> tuple[np.ndarray, StepExpansion]:
    """Advance M candidate items from the same state in one vectorized step.

    Equivalent to M independent advance_sequence calls; used by beam search
    so expansion cost is dominated by the arithmetic the complexity analysis
    counts, not by Python call overhead.
    """
    _require_variant(params, ("mirnn", "mirnn_attention"))
    blocks = params.blocks
    x = np.atleast_2d(np.asarray(extended, dtype=np.float64))
    hidden_new, cell_new, _ = nn.lstm_step_batch(blocks, state.hidden, state.cell, x)
    logits = hidden_new @ blocks["w_out"]
    reps = None
    if params.variant == "mirnn_attention":
        pos_dim = params.config.pos_size
        pos = blocks["pos_emb"][position_row(blocks, state.position)]
        reps = np.maximum(
            hidden_new @ blocks["W_a"][:, pos_dim:].T + blocks["W_a"][:, :pos_dim] @ pos,
            0.0,
        )
        if state.position > 1:
            attn_dim = params.config.attn_size
            t = state.rep_cache.shape[0]
            pairs = np.empty((x.shape[0], t, 2 * attn_dim))
            pairs[:, :, :attn_dim] = reps[:, None, :]
            pairs[:, :, attn_dim:] = state.rep_cache[None, :, :]
            scores = np.maximum(pairs @ blocks["w_g"], 0.0)
            alpha = softmax(scores, axis=1)
            context = alpha @ state.hidden_history
            logits = logits + context @ blocks["w_ctx"]
    return nn.sigmoid(logits), StepExpansion(hidden=hidden_new, cell=cell_new, reps=reps)


def advance_entries(
    params: ModelParams,
    hiddens: np.ndarray,
    cells: np.ndarray,
    histories: np.ndarray,
    rep_caches: np.ndarray | None,
    position: int,
    extended: np.ndarray,
):
    """Advance E beam entries, each against all N candidate items, at once.

    ``hiddens``/``cells`` are (E, H), ``histories`` is (E, t, H) with
    t = position - 1, ``rep_caches`` is (E, t, A) for the attention variant,
    ``extended`` is the shared (N, F) feature matrix. Returns
    (probs (E, N), hidden' (E, N, H), cell' (E, N, H), reps (E, N, A) or
    None). Row (e, i) equals advance_sequence_batch on entry e's state alone.

    The candidate-input projection is shared across entries, so beam search
    pays the per-step call overhead once instead of once per entry.
    """
    _require_variant(params, ("mirnn", "mirnn_attention"))
    blocks = params.blocks
    h_dim = hiddens.shape[1]
    x = np.atleast_2d(np.asarray(extended, dtype=np.float64))
    z = (x @ blocks["Wx"].T)[None, :, :] + (hiddens @ blocks["Wh"].T + blocks["b"])[:, None, :]
    gates = nn.sigmoid(z[:, :, : 3 * h_dim])
    i = gates[:, :, :h_dim]
    f = gates[:, :, h_dim : 2 * h_dim]
    o = gates[:, :, 2 * h_dim :]
    g = np.tanh(z[:, :, 3 * h_dim :])
    cell_new = f * cells[:, None, :] + i * g
    hidden_new = o * np.tanh(cell_new)
    logits = hidden_new @ blocks["w_out"]
    reps = None
    if params.variant == "mirnn_attention":
        attn_dim = params.config.attn_size
        pos_dim = params.config.pos_size
        pos = blocks["pos_emb"][position_row(blocks, position)]
        reps = np.maximum(
            hidden_new @ blocks["W_a"][:, pos_dim:].T + blocks["W_a"][:, :pos_dim] @ pos,
            0.0,
        )
        if position > 1:
            t = histories.shape[1]
            n_entries, n_items = reps.shape[:2]
            # The pair tensor is built one entry at a time into a reused
            # buffer, so peak memory stays at (N, t, 2A) however wide the beam.
            scores = np.empty((n_entries, n_items, t))
            pairs = np.empty((n_items, t, 2 * attn_dim))
            for e in range(n_entries):
                pairs[:, :, :attn_dim] = reps[e, :, None, :]
                pairs[:, :, attn_dim:] = rep_caches[e, None, :, :]
                np.matmul(pairs, blocks["w_g"], out=scores[e])
            alpha = softmax(np.maximum(scores, 0.0), axis=2)
            context = np.einsum("ent,eth->enh", alpha, histories)
            logits = logits + context @ blocks["w_ctx"]
    return nn.sigmoid(logits), hidden_new, cell_new, reps


def branch_state(state: SequenceState, expansion: StepExpansion, index: int) -> SequenceState:
    """State reached by committing candidate ``index`` of a batched expansion."""
    rep_cache = state.rep_cache
    if expansion.reps is not None:
        rep_cache = np.vstack([state.rep_cache, expansion.reps[index]])
    return SequenceState(
        hidden=expansion.hidden[index],
        cell=expansion.cell[index],
        hidden_history=np.vstack([state.hidden_history, expansion.hidden[index]]),
        rep_cache=rep_cache,
        position=state.position + 1,
    )


# ---------------------------------------------------------------------------
# Whole-sequence evaluation (non-incremental; the beam search oracle path)


def sequence_probabilities(params: ModelParams, extended: np.ndarray, order) -> np.ndarray:
    """Per-position probabilities for one full order, recomputed from scratch."""
    return sequence_probabilities_batch(params, extended, np.asarray(order)[None, :])[0]


def sequence_probabilities_batch(
    params: ModelParams, extended: np.ndarray, orders: np.ndarray
) -> np.ndarray:
    """Per-position probabilities for a (Q, T) batch of orders over one set."""
    _require_variant(params, ("mirnn", "mirnn_attention"))
    x = np.asarray(extended, dtype=np.float64)[np.asarray(orders, dtype=int)]
    probs, _ = nn.sequence_forward(params.blocks, x)
    return probs


# Records per forward pass when a whole log is scored: bounds the caches held
# at once on large logs while keeping each step's matmuls wide.
LOG_CHUNK = 64


def logged_forward(params: ModelParams, extended: Sequence[np.ndarray]):
    """Forward pass over each record's logged order, many records at a time.

    ``extended`` holds one (T, F) matrix per record, rows in logged order.
    Records are grouped by length, so each chunk of at most LOG_CHUNK of them
    stacks into one (B, T, F) batch. Yields (indices, probs, caches) per
    chunk: ``indices`` locate its records in ``extended``; probs and caches
    are those of :func:`nn.sequence_forward`.
    """
    _require_variant(params, ("mirnn", "mirnn_attention"))
    buckets: dict[int, list[int]] = defaultdict(list)
    for index, feats in enumerate(extended):
        buckets[len(feats)].append(index)
    for length in sorted(buckets):
        indices = buckets[length]
        for start in range(0, len(indices), LOG_CHUNK):
            chunk = indices[start : start + LOG_CHUNK]
            probs, caches = nn.sequence_forward(params.blocks, np.stack([extended[i] for i in chunk]))
            yield chunk, probs, caches


def sequence_attention_weights(params: ModelParams, extended: np.ndarray, order) -> list[np.ndarray]:
    """Attention weight vectors per position for one order (empty at position 1)."""
    _require_variant(params, ("mirnn_attention",))
    x = np.asarray(extended, dtype=np.float64)[np.asarray(order, dtype=int)][None]
    _, caches = nn.sequence_forward(params.blocks, x)
    weights = [np.zeros(0)]
    for alpha in caches["alphas"][1:]:
        weights.append(alpha[0])
    return weights
