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
from .lstm import lstm_step_batch, lstm_step_backward


def sequence_forward(params: dict[str, np.ndarray], x: np.ndarray, keep_caches: bool = False):
    """Purchase probabilities for every position of every sequence.

    Args:
        params: LSTM blocks, plus attention blocks for the attention variant.
        x: Extended features, shape (B, T, F); positions are 1..T.
        keep_caches: keep what :func:`sequence_backward` reads. Training
            asks for it; scoring does not, and then holds only the running
            state, plus the hidden states and representations that the
            attention variant looks back on.

    Returns:
        (probs, caches): probs has shape (B, T). ``caches["alphas"]`` holds,
        for the attention variant, the per-position attention weights (a list
        of (B, t-1) arrays indexed by 0-based position, None at position 1),
        and is empty for ``mirnn``. With ``keep_caches`` the dict also holds
        the backward caches. The probabilities and weights are the same bits
        either way.
    """
    x = np.asarray(x, dtype=np.float64)
    batch, length, _ = x.shape
    h_dim = params["Wh"].shape[1]
    attention = "w_ctx" in params
    hiddens = np.zeros((batch, length, h_dim)) if attention or keep_caches else None
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
        if keep_caches:
            contexts = np.zeros((batch, length, h_dim))
    for t in range(length):
        h, cell, cache = lstm_step_batch(params, h, cell, x[:, t])
        if keep_caches:
            lstm_caches.append(cache)
        if hiddens is not None:
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
                context = np.einsum("bt,bth->bh", alpha, hiddens[:, :t])
                if keep_caches:
                    contexts[:, t] = context
                    pre_gs.append(pre_g)
                alphas.append(alpha)
                logits[:, t] += context @ params["w_ctx"]
    probs = sigmoid(logits)
    if not keep_caches:
        return probs, {"alphas": alphas}
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
