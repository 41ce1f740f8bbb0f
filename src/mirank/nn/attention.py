"""Attention over previous hidden states for the recurrent ranking model.

Each ranked item gets a representation a_i = ReLU(W_a [pos_i; h_i]) built
from a learned position embedding and the current hidden vector. Pairwise
scores ReLU(w_g . [a_i; a_j]) are softmax-normalized over the predecessors
j < i, and the context is the weighted sum of their hidden vectors.
"""

from __future__ import annotations

import numpy as np

from .common import glorot_uniform


def init_attention_params(
    hidden_dim: int,
    attn_dim: int,
    pos_dim: int,
    max_positions: int,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Attention-specific blocks; combined with LSTM blocks in the full model."""
    return {
        "w_ctx": glorot_uniform(rng, (hidden_dim,)),
        "W_a": glorot_uniform(rng, (attn_dim, pos_dim + hidden_dim)),
        "w_g": glorot_uniform(rng, (2 * attn_dim,)),
        "pos_emb": rng.uniform(-0.05, 0.05, size=(max_positions, pos_dim)),
    }


def position_row(params: dict[str, np.ndarray], position_index: int) -> int:
    """0-based embedding row for a 1-based position; indices beyond the table clamp."""
    if position_index < 1:
        raise ValueError(f"position_index must be >= 1, got {position_index}")
    return min(position_index, params["pos_emb"].shape[0]) - 1


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = scores - scores.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)
