"""Feed-forward purchase-probability network: ReLU hidden layers, sigmoid output.

Parameters are stored as a flat dict of named arrays so that the optimizer,
the gradient checker, and persistence can treat every model uniformly.
Blocks: ``W{k}``/``b{k}`` for hidden layer k (1-based), ``W_out``/``b_out``
for the scalar output layer.
"""

from __future__ import annotations

import numpy as np

from .common import sigmoid


def _num_hidden(params: dict[str, np.ndarray]) -> int:
    return sum(1 for name in params if name.startswith("W") and name != "W_out")


def mlp_forward_batch(params: dict[str, np.ndarray], x: np.ndarray):
    """Forward pass over a (n, input_dim) batch.

    Returns (probs, caches) where probs has shape (n,) and caches holds the
    layer activations needed by :func:`mlp_backward`.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params["W1"].shape[1]:
        raise ValueError(
            f"input dimension {x.shape[1]} does not match model "
            f"input dimension {params['W1'].shape[1]}"
        )
    activations = [x]
    pre_activations = []
    h = x
    for k in range(1, _num_hidden(params) + 1):
        pre = h @ params[f"W{k}"].T + params[f"b{k}"]
        h = np.maximum(pre, 0.0)
        pre_activations.append(pre)
        activations.append(h)
    logits = (h @ params["W_out"].T + params["b_out"]).ravel()
    probs = sigmoid(logits)
    return probs, (activations, pre_activations)


def mlp_backward(
    params: dict[str, np.ndarray],
    caches,
    dlogits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of the summed loss given d(loss)/d(logit) per batch row."""
    activations, pre_activations = caches
    n_hidden = _num_hidden(params)
    dlogits = np.asarray(dlogits, dtype=np.float64)
    grads: dict[str, np.ndarray] = {}
    grads["W_out"] = dlogits[None, :] @ activations[-1]
    grads["b_out"] = np.array([dlogits.sum()])
    dh = dlogits[:, None] @ params["W_out"]
    for k in range(n_hidden, 0, -1):
        dpre = dh * (pre_activations[k - 1] > 0)
        grads[f"W{k}"] = dpre.T @ activations[k - 1]
        grads[f"b{k}"] = dpre.sum(axis=0)
        dh = dpre @ params[f"W{k}"]
    return grads
