"""Attention over previous hidden states for the recurrent ranking model.

Each ranked item gets a representation a_i = ReLU(W_a [pos_i; h_i]) built
from a learned position embedding and the current hidden vector. Pairwise
scores ReLU(w_g . [a_i; a_j]) are softmax-normalized over the predecessors
j < i, and the context is the weighted sum of their hidden vectors.
"""

from __future__ import annotations

import numpy as np


def position_row(params: dict[str, np.ndarray], position_index: int) -> int:
    """0-based embedding row for a 1-based position; indices beyond the table clamp."""
    if position_index < 1:
        raise ValueError(f"position_index must be >= 1, got {position_index}")
    return min(position_index, params["pos_emb"].shape[0]) - 1


def representations(params: dict[str, np.ndarray], hidden: np.ndarray, position: int) -> np.ndarray:
    """a = ReLU(W_a [pos; h]) of hidden states (..., H) at 1-based ``position``."""
    pos_dim = params["pos_emb"].shape[1]
    reps = hidden @ params["W_a"][:, pos_dim:].T
    reps += params["W_a"][:, :pos_dim] @ params["pos_emb"][position_row(params, position)]
    return np.maximum(reps, 0.0, out=reps)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = scores - scores.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e
