"""The four scoring policies behind one purchase-probability interface.

``baseline`` is an MLP over local features only.
``midnn`` is the same architecture over the global feature extension; its
probabilities depend on the candidate set but not on display order.
``mirnn`` and ``mirnn_attention`` are sequential: the probability at each
position conditions on the items ranked before it. Beam search advances many
partial rankings one position at a time through :func:`advance_entries`,
each with only the items it has not placed; every other caller scores whole
orders through :func:`nn.sequence_forward`. ``models`` checks its rows:
every scoring call takes (n, F) rows at the variant's input width, else a
ValidationError. ``nn`` trusts what it is given.
"""

from __future__ import annotations

import numpy as np

from .configs import ModelConfig, ModelParams
from .core import ValidationError, make_rng
from . import nn
from .nn.recurrent import representations, softmax
from .nn.train import init_blocks

__all__ = [
    "advance_entries",
    "init_model",
    "input_projection",
    "item_probabilities",
    "sequence_probabilities",
]


def init_model(variant: str, config: ModelConfig, seed: int) -> ModelParams:
    """Seed-deterministic fresh parameters for a variant."""
    return ModelParams(variant=variant, config=config, blocks=init_blocks(variant, config, make_rng(seed)))


def _rows(params: ModelParams, rows) -> np.ndarray:
    """``rows`` as float64; anything but (n, F) at the variant's width is a ValidationError."""
    rows = np.asarray(rows, dtype=np.float64)
    width = params.config.input_dim(params.variant)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValidationError(f"{params.variant} scores rows of {width} features, got shape {rows.shape}")
    return rows


# ---------------------------------------------------------------------------
# Feed-forward scoring


def item_probabilities(params: ModelParams, rows: np.ndarray) -> np.ndarray:
    """Order-independent purchase probabilities of a feed-forward model from (n, F) rows:
    local features for ``baseline``, extended for ``midnn``; a recurrent model is a MirankError."""
    params.require("item_probabilities", "recurrent", False)
    return nn.mlp_forward_batch(params.blocks, _rows(params, rows))[0]


# ---------------------------------------------------------------------------
# Incremental scoring (the beam search step)


def input_projection(params: ModelParams, extended: np.ndarray) -> np.ndarray:
    """(N, 4H) LSTM input pre-activations of N candidates; fixed per query."""
    params.require("input_projection", "recurrent")
    return _rows(params, extended) @ params.blocks["Wx"].T


def advance_entries(
    params: ModelParams,
    hiddens: np.ndarray,
    cells: np.ndarray,
    histories: np.ndarray | None,
    rep_caches: np.ndarray | None,
    position: int,
    projected: np.ndarray,
    *,
    items: np.ndarray | None = None,
):
    """Advance E beam entries at once, each against M of the N candidate items.

    ``hiddens``/``cells`` are (E, H). For the attention variant
    ``histories`` is (E, T, H) and ``rep_caches`` is (E, T, A) with
    T >= position - 1, and only their first position - 1 columns are read
    (beam search passes (E, N) buffers filled up to the current step, whose
    rows are contiguous float64 runs, as the pair fill below needs);
    ``mirnn`` reads neither, and may pass None for both.
    ``projected`` is the (N, 4H) :func:`input_projection` of the shared
    (N, F) feature matrix, computed once per query. ``items`` is an
    (E, M) array of item indices, row e naming the items entry e is advanced
    with (beam search passes each entry's unplaced items); by default every
    entry is advanced with all N items. Returns (probs (E, M), hidden'
    (E, M, H), cell' (E, M, H), reps (E, M, A) or None); cell (e, j) is entry
    e advanced with item ``items[e, j]``.

    The cell update runs on the E*M requested pairs only. Every matrix
    product runs on the full (E, N) layout, the other pairs' hidden rows left
    at zero: OpenBLAS rounds a row differently depending on how many rows the
    call has, so this keeps each pair's result bit-identical to the all-items
    call. The attention pair scores, softmax and context also span all N.
    Sums and activations are written in place wherever that is the same IEEE
    operation on the same operands.

    An entry's attention pair tensor is (N, t, 2A), row (i, j) being
    [a_i; a_j]. It is filled by whole half-row copies, viewed as (N, t, 2)
    values of A doubles each, where broadcasting doubles would run N*t inner
    loops of A elements. This is exact: the buffer keeps its C-contiguous
    layout and receives the same bytes, so each item's (t, 2A) gemv in the
    pair matmul is the same call on the same operands.

    At position 1 there are no predecessors and the attention context is zero,
    so the attention logit reduces to the plain recurrent one. A position
    below 1 is a ValidationError.
    """
    params.require("advance_entries", "recurrent")
    if position < 1:
        raise ValidationError(f"advance_entries takes a 1-based position, got {position}")
    blocks = params.blocks
    n_entries, n_items = len(hiddens), len(projected)
    if items is None:
        items = np.broadcast_to(np.arange(n_items), (n_entries, n_items))
    rows = np.arange(n_entries)[:, None]
    z = projected[items]
    z += (hiddens @ blocks["Wh"].T + blocks["b"])[:, None, :]
    hidden_new, cell_new, _ = nn.cell_update(z, cells[:, None, :])
    hidden_all = np.zeros((n_entries, n_items, hidden_new.shape[2]))
    hidden_all[rows, items] = hidden_new
    logits = hidden_all @ blocks["w_out"]
    reps = None
    if params.traits.attention:
        attn_dim = params.config.attn_size
        reps = representations(blocks, hidden_all, position)
        if position > 1:
            t = position - 1
            # The pair tensor is built one entry at a time into a reused
            # buffer, so peak memory stays at (N, t, 2A) however wide the beam.
            scores = np.empty(reps.shape[:2] + (t,))
            pairs = np.empty((n_items, t, 2 * attn_dim))
            half = np.dtype((np.void, 8 * attn_dim))
            halves = pairs.view(half)
            item_halves, cache_halves = reps.view(half)[..., 0], rep_caches[:, :t].view(half)[..., 0]
            for e in range(n_entries):
                halves[:, :, 0] = item_halves[e, :, None]
                halves[:, :, 1] = cache_halves[e]
                np.matmul(pairs, blocks["w_g"], out=scores[e])
            alpha = softmax(np.maximum(scores, 0.0, out=scores))
            logits += (alpha @ histories[:, :t]) @ blocks["w_ctx"]
        reps = reps[rows, items]
    return nn.sigmoid(logits[rows, items]), hidden_new, cell_new, reps


# ---------------------------------------------------------------------------
# Whole-sequence evaluation (non-incremental; the beam search oracle path)


def sequence_probabilities(params: ModelParams, extended: np.ndarray, orders) -> np.ndarray:
    """(Q, T) per-position probabilities of a (Q, T) batch of orders over one
    set's (N, F) extended features, each order recomputed from scratch."""
    params.require("sequence_probabilities", "recurrent")
    x = _rows(params, extended)[np.asarray(orders, dtype=int)]
    probs, _ = nn.sequence_forward(params.blocks, x)
    return probs
