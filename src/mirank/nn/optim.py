"""Adam-style adaptive per-parameter optimizer, seed-deterministic."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Adam's moment decay rates and the denominator's guard against division by zero.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, keyed like the parameter blocks."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    blocks: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
) -> None:
    """Update ``blocks`` in place from ``grads``; ``state`` carries the moments."""
    state.t += 1
    for name, grad in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(grad)
            state.v[name] = np.zeros_like(grad)
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * grad
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * grad**2
        m_hat = state.m[name] / (1.0 - BETA1**state.t)
        v_hat = state.v[name] / (1.0 - BETA2**state.t)
        blocks[name] -= learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
