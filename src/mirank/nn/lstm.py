"""LSTM cell, standard formulation (no peepholes), forget-gate bias 1.0.

The four gates are stacked into single matrices in the order
input / forget / output / candidate, so one matmul computes all
pre-activations. Blocks: ``Wx`` (4H, F), ``Wh`` (4H, H), ``b`` (4H,), and
the scalar output projection ``w_out`` (H,).
"""

from __future__ import annotations

import numpy as np

from .common import sigmoid


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
