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
    """Forward pass over a float64 (n, input_dim) batch, taken as given.

    Returns (probs, activations): probs has shape (n,); activations are the
    input and each hidden layer's post-ReLU output, all that
    :func:`mlp_backward` reads. Each layer's bias and ReLU are applied in
    place, so no pre-activation array outlives its layer.
    """
    activations = [x]
    h = x
    for k in range(1, _num_hidden(params) + 1):
        h = h @ params[f"W{k}"].T
        h += params[f"b{k}"]
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    logits = (h @ params["W_out"].T + params["b_out"]).ravel()
    probs = sigmoid(logits)
    return probs, activations


def mlp_backward(
    params: dict[str, np.ndarray],
    activations: list[np.ndarray],
    dlogits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of the summed loss given d(loss)/d(logit) per batch row.

    A unit's ReLU gradient is taken where its post-ReLU output is positive,
    which is exactly where its pre-activation was (NaN and -0.0 included).
    """
    n_hidden = _num_hidden(params)
    grads: dict[str, np.ndarray] = {}
    grads["W_out"] = dlogits[None, :] @ activations[-1]
    grads["b_out"] = np.array([dlogits.sum()])
    dh = dlogits[:, None] @ params["W_out"]
    for k in range(n_hidden, 0, -1):
        dpre = dh * (activations[k] > 0)
        grads[f"W{k}"] = dpre.T @ activations[k - 1]
        grads[f"b{k}"] = dpre.sum(axis=0)
        dh = dpre @ params[f"W{k}"]
    return grads
