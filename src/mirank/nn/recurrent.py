"""The recurrent ranking network: an LSTM over the ranked prefix, attention
over its predecessors, and the full-sequence forward and reverse-mode
backward of both.

The LSTM cell is the standard formulation (no peepholes), forget-gate bias
1.0. The four gates are stacked into single matrices in the order
input / forget / output / candidate, so one matmul computes all
pre-activations. Blocks: ``Wx`` (4H, F), ``Wh`` (4H, H), ``b`` (4H,), and
the scalar output projection ``w_out`` (H,).

Attention looks back over previous hidden states. Each ranked item gets a
representation a_i = ReLU(W_a [pos_i; h_i]) built from a learned position
embedding and the current hidden vector. Pairwise scores
ReLU(w_g . [a_i; a_j]) are softmax-normalized over the predecessors j < i,
and the context is the weighted sum of their hidden vectors.

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

from .common import sigmoid


def position_row(params: dict[str, np.ndarray], position_index: int) -> int:
    """0-based embedding row for a 1-based position; indices beyond the table clamp."""
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


def lstm_step_batch(
    params: dict[str, np.ndarray],
    hidden: np.ndarray,
    cell: np.ndarray,
    x: np.ndarray,
):
    """One recurrence step over a (B, F) batch of inputs from (B, H) hidden
    and cell states. Returns (hidden', cell', cache).
    """
    z = x @ params["Wx"].T + hidden @ params["Wh"].T + params["b"]
    hidden_new, cell_new, (i, f, o, g, tanh_cell) = cell_update(z, cell)
    cache = (x, hidden, cell, i, f, o, g, tanh_cell)
    return hidden_new, cell_new, cache


def cell_update(z: np.ndarray, cell: np.ndarray):
    """Cell and hidden update from stacked (..., 4H) gate pre-activations.

    ``z`` is overwritten with the gate activations: one sigmoid over i, f and
    o, one tanh over g. Returns (hidden', cell', (i, f, o, g, tanh(cell'))),
    the gates being views of ``z``; they are what :func:`lstm_step_backward`
    needs.
    """
    h_dim = z.shape[-1] // 4
    gates, g = z[..., : 3 * h_dim], z[..., 3 * h_dim :]
    sigmoid(gates, out=gates)
    np.tanh(g, out=g)
    i, f, o = gates[..., :h_dim], gates[..., h_dim : 2 * h_dim], gates[..., 2 * h_dim :]
    cell_new = f * cell
    cell_new += i * g
    tanh_cell = np.tanh(cell_new)
    return o * tanh_cell, cell_new, (i, f, o, g, tanh_cell)


def lstm_step_backward(
    params: dict[str, np.ndarray],
    cache,
    dhidden: np.ndarray,
    dcell: np.ndarray,
    grads: dict[str, np.ndarray],
):
    """Backward through one batched step.

    Accumulates into ``grads`` and returns (dhidden_prev, dcell_prev). The
    gradient with respect to the step input x is not needed by any caller
    (features are data, not parameters) and is not computed.
    """
    x, hidden_prev, cell_prev, i, f, o, g, tanh_cell = cache
    # The gates are strided views of one (B, 4H) array; each is read several
    # times below, and a contiguous copy is read faster.
    i, f, o, g = map(np.ascontiguousarray, (i, f, o, g))
    do = dhidden * tanh_cell
    dcell_total = dcell + dhidden * o * (1.0 - tanh_cell**2)
    di = dcell_total * g
    df = dcell_total * cell_prev
    dg = dcell_total * i
    dcell_prev = dcell_total * f
    h_dim = i.shape[-1]
    dz = np.empty((len(i), 4 * h_dim))
    np.multiply(di * i, 1.0 - i, out=dz[:, :h_dim])
    np.multiply(df * f, 1.0 - f, out=dz[:, h_dim : 2 * h_dim])
    np.multiply(do * o, 1.0 - o, out=dz[:, 2 * h_dim : 3 * h_dim])
    np.multiply(dg, 1.0 - g**2, out=dz[:, 3 * h_dim :])
    grads["Wx"] += dz.T @ x
    grads["Wh"] += dz.T @ hidden_prev
    grads["b"] += dz.sum(axis=0)
    dhidden_prev = dz @ params["Wh"]
    return dhidden_prev, dcell_prev


def sequence_forward(params: dict[str, np.ndarray], x: np.ndarray, keep_caches: bool = False):
    """Purchase probabilities for every position of every sequence.

    Args:
        params: LSTM blocks, plus attention blocks for the attention variant.
        x: Extended float64 features, shape (B, T, F); positions are 1..T.
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
