"""Activations, loss, and parameter initialization shared by all models."""

from __future__ import annotations

import numpy as np
from scipy.special import expit

# Probabilities are clamped into [PROB_EPS, 1 - PROB_EPS] before any log.
PROB_EPS = 1e-7

sigmoid = expit


def cross_entropy(prediction: float, label: int) -> float:
    """Binary cross-entropy -[y ln p + (1-y) ln(1-p)] with internal clamping."""
    p = min(max(float(prediction), PROB_EPS), 1.0 - PROB_EPS)
    y = float(label)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def cross_entropy_batch(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Summed binary cross-entropy over a batch of predictions."""
    p = np.clip(np.asarray(predictions, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.sum(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        fan_out, fan_in = shape[0], int(np.prod(shape[1:]))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
