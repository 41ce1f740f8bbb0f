"""Central finite-difference verification of the hand-derived gradients
(criterion 3 and ``test_nn``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mirank.configs import ModelConfig
from mirank.core import make_rng
from mirank.nn.train import batch_loss_and_grads, init_blocks

REL_ERROR_EPS = 1e-8


@dataclass(frozen=True)
class GradientReport:
    """Per-block maximum relative error between analytic and numeric gradients."""

    variant: str
    block_errors: dict[str, float]

    @property
    def max_error(self) -> float:
        return max(self.block_errors.values())

    def passes(self, tolerance: float = 1e-4) -> bool:
        return self.max_error < tolerance


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_ERROR_EPS)


def gradient_check(
    variant: str,
    config: ModelConfig,
    x: np.ndarray,
    labels: np.ndarray,
    seed: int,
    step: float = 1e-5,
) -> GradientReport:
    """Check every parameter element of a freshly initialized small model.

    ``x``/``labels`` are a batch in the variant's layout: (n, F) items for the
    feed-forward variants, (B, T, F) sequences for the recurrent ones.
    Intended for small instances only (sequence length <= 8, hidden <= 8);
    cost is two full forward passes per parameter.
    """
    param_rng = make_rng(seed)
    blocks = init_blocks(variant, config, param_rng)
    # Jitter the check point: fresh biases are exactly zero, and an all-dead
    # ReLU layer then parks the next pre-activation exactly on the kink,
    # where the subgradient and the one-sided difference quotient disagree.
    for values in blocks.values():
        values += 0.1 * param_rng.standard_normal(values.shape)
    loss, analytic = batch_loss_and_grads(variant, blocks, x, labels)
    if not np.isfinite(loss):
        raise ValueError(f"non-finite loss {loss} on the gradient-check instance")

    block_errors: dict[str, float] = {}
    for name, values in blocks.items():
        worst = 0.0
        flat = values.ravel()
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            loss_plus, _ = batch_loss_and_grads(variant, blocks, x, labels)
            flat[idx] = original - step
            loss_minus, _ = batch_loss_and_grads(variant, blocks, x, labels)
            flat[idx] = original
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            worst = max(worst, relative_error(analytic[name].ravel()[idx], numeric))
        block_errors[name] = worst
    return GradientReport(variant=variant, block_errors=block_errors)
