"""Full-sequence forward and reverse-mode backward for the recurrent models.

Both recurrent variants share this code; the presence of the ``w_ctx`` block
in the parameter dict selects the attention path. Sequences are processed as
(B, T, F) batches so one step is a handful of matmuls rather than B Python
calls.

Backward runs in two phases. Phase one walks the sequence once, turning each
position's logit gradient into direct hidden-state gradients, attention
gradients, and per-position representation gradients (a representation a_t
receives contributions from every later position that attends to it). Phase
two walks backwards, folding each position's representation gradient into
its hidden state and then stepping the LSTM backward through time.
"""

from __future__ import annotations

import numpy as np

from .attention import position_row, representations, softmax
from .common import sigmoid
from .lstm import hidden_dim, lstm_step_batch, lstm_step_backward


def sequence_forward(params: dict[str, np.ndarray], x: np.ndarray):
    """Purchase probabilities for every position of every sequence.

    Args:
        params: LSTM blocks, plus attention blocks for the attention variant.
        x: Extended features, shape (B, T, F); positions are 1..T.

    Returns:
        (probs, caches): probs has shape (B, T); caches feed
        :func:`sequence_backward` and, for the attention variant, expose the
        per-position attention weights as ``caches["alphas"]`` (a list of
        (B, t-1) arrays indexed by 0-based position).
    """
    x = np.asarray(x, dtype=np.float64)
    batch, length, _ = x.shape
    h_dim = hidden_dim(params)
    attention = "w_ctx" in params
    hiddens = np.zeros((batch, length, h_dim))
    h = np.zeros((batch, h_dim))
    cell = np.zeros((batch, h_dim))
    logits = np.zeros((batch, length))
    lstm_caches = []
    reps = contexts = None
    pre_gs: list = []
    alphas: list = []
    if attention:
        attn_dim = params["W_a"].shape[0]
        reps = np.zeros((batch, length, attn_dim))
        contexts = np.zeros((batch, length, h_dim))
    for t in range(length):
        h, cell, cache = lstm_step_batch(params, h, cell, x[:, t])
        lstm_caches.append(cache)
        hiddens[:, t] = h
        logits[:, t] = h @ params["w_out"]
        if attention:
            reps[:, t] = representations(params, h, t + 1)
            if t == 0:
                pre_gs.append(None)
                alphas.append(None)
            else:
                pre_g = np.maximum(
                    reps[:, t] @ params["w_g"][:attn_dim, None]
                    + reps[:, :t] @ params["w_g"][attn_dim:],
                    0.0,
                )
                alpha = softmax(pre_g)
                contexts[:, t] = np.einsum("bt,bth->bh", alpha, hiddens[:, :t])
                pre_gs.append(pre_g)
                alphas.append(alpha)
                logits[:, t] += contexts[:, t] @ params["w_ctx"]
    probs = sigmoid(logits)
    caches = {
        "hiddens": hiddens,
        "lstm": lstm_caches,
        "reps": reps,
        "contexts": contexts,
        "pre_gs": pre_gs,
        "alphas": alphas,
    }
    return probs, caches


def sequence_backward(
    params: dict[str, np.ndarray],
    caches: dict,
    dlogits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of the summed loss given d(loss)/d(logit), shape (B, T)."""
    hiddens = caches["hiddens"]
    batch, length, h_dim = hiddens.shape
    attention = "w_ctx" in params
    grads = {name: np.zeros_like(value) for name, value in params.items()}
    dhidden_direct = np.zeros((batch, length, h_dim))
    drep = None
    if attention:
        attn_dim = params["W_a"].shape[0]
        pos_dim = params["pos_emb"].shape[1]
        reps = caches["reps"]
        drep = np.zeros((batch, length, attn_dim))

    for t in range(length):
        dl = dlogits[:, t]
        grads["w_out"] += dl @ hiddens[:, t]
        dhidden_direct[:, t] += dl[:, None] * params["w_out"]
        if not attention:
            continue
        grads["w_ctx"] += dl @ caches["contexts"][:, t]
        if t == 0:
            continue
        dctx = dl[:, None] * params["w_ctx"]
        alpha = caches["alphas"][t]
        pre_g = caches["pre_gs"][t]
        dalpha = np.einsum("bh,bth->bt", dctx, hiddens[:, :t])
        dhidden_direct[:, :t] += alpha[:, :, None] * dctx[:, None, :]
        dscore = alpha * (dalpha - np.sum(alpha * dalpha, axis=1, keepdims=True))
        dpre_g = dscore * (pre_g > 0)
        row_sum = dpre_g.sum(axis=1)
        grads["w_g"][:attn_dim] += row_sum @ reps[:, t]
        grads["w_g"][attn_dim:] += np.einsum("bt,bta->a", dpre_g, reps[:, :t])
        drep[:, t] += row_sum[:, None] * params["w_g"][:attn_dim]
        drep[:, :t] += dpre_g[:, :, None] * params["w_g"][attn_dim:]

    dhidden_next = np.zeros((batch, h_dim))
    dcell_next = np.zeros((batch, h_dim))
    for t in range(length - 1, -1, -1):
        dhidden = dhidden_direct[:, t] + dhidden_next
        if attention:
            dpre_a = drep[:, t] * (reps[:, t] > 0)
            pos_idx = position_row(params, t + 1)
            grads["W_a"][:, :pos_dim] += np.outer(
                dpre_a.sum(axis=0), params["pos_emb"][pos_idx]
            )
            grads["W_a"][:, pos_dim:] += dpre_a.T @ hiddens[:, t]
            grads["pos_emb"][pos_idx] += params["W_a"][:, :pos_dim].T @ dpre_a.sum(axis=0)
            dhidden = dhidden + dpre_a @ params["W_a"][:, pos_dim:]
        dhidden_next, dcell_next = lstm_step_backward(
            params, caches["lstm"][t], dhidden, dcell_next, grads
        )
    return grads
