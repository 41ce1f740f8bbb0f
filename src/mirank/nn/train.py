"""Training loop: mini-batch Adam over items (feed-forward) or sequences
(recurrent), with an Adam-style adaptive per-parameter optimizer that is
seed-deterministic."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from ..configs import ModelConfig, ModelParams, TrainConfig, expected_block_shapes, variant_traits
from ..core import MirankError, QueryRecord, make_rng
from ..features import extend_feature_matrix, record_rows
from .common import cross_entropy_batch, glorot_uniform
from .mlp import mlp_backward, mlp_forward_batch
from .recurrent import sequence_backward, sequence_forward


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


class TrainingDiverged(MirankError):
    """Training hit a non-finite loss or parameter; message carries the epoch."""


def init_blocks(variant: str, config: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Freshly initialized parameter blocks for a variant.

    Blocks are drawn in the order of :func:`expected_block_shapes`: biases
    (``b*``) are zero, ``pos_emb`` is uniform in +-0.05, and every other block
    is Glorot-uniform.
    """
    blocks: dict[str, np.ndarray] = {}
    for name, shape in expected_block_shapes(variant, config).items():
        if name.startswith("b"):
            blocks[name] = np.zeros(shape)
            if name == "b":  # the LSTM's stacked gate biases: the forget gate starts open
                blocks[name][shape[0] // 4 : shape[0] // 2] = 1.0
        elif name == "pos_emb":
            blocks[name] = rng.uniform(-0.05, 0.05, size=shape)
        else:
            blocks[name] = glorot_uniform(rng, shape)
    return blocks


def batch_loss_and_grads(variant: str, blocks: dict[str, np.ndarray], x: np.ndarray, labels: np.ndarray):
    """Summed cross-entropy and its gradients for one batch.

    Feed-forward variants take (n, F) items; recurrent variants take
    (B, T, F) sequences with (B, T) labels. The logit gradient is the usual
    prediction-minus-label, exact wherever the probability clamp is inactive.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if not variant_traits(variant).recurrent:
        probs, caches = mlp_forward_batch(blocks, x)
        loss = cross_entropy_batch(probs, labels)
        grads = mlp_backward(blocks, caches, probs - labels)
    else:
        probs, caches = sequence_forward(blocks, x, keep_caches=True)
        loss = cross_entropy_batch(probs.ravel(), labels.ravel())
        grads = sequence_backward(blocks, caches, probs - labels)
    return loss, grads


def _training_groups(variant: str, records: Sequence[QueryRecord]):
    """The groups that mini-batches are drawn from, as (size, batch) pairs:
    ``batch(chosen)`` returns the features and labels at positions ``chosen``
    of the group.

    Feed-forward variants train on items: one group of all items in record
    order, whose (n, F) rows are :func:`record_rows`. Recurrent
    variants train on whole records: one group per record length, shortest
    first, and each batch stacks and extends only its chosen records, giving
    (B, T, F) features and (B, T) labels. Each record's extension reads only
    its own rows, so its features do not depend on the records it is batched
    with.
    """
    traits = variant_traits(variant)
    if not traits.recurrent:
        feats = record_rows(records, traits.extended)
        labels = np.concatenate([record.labels for record in records]).astype(np.float64)
        return [(len(labels), lambda chosen: (feats[chosen], labels[chosen]))]

    def batch(group: list[QueryRecord], chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        chosen_records = [group[i] for i in chosen]
        return (
            extend_feature_matrix(np.stack([r.candidate_set.feature_matrix for r in chosen_records])),
            np.stack([r.labels for r in chosen_records]).astype(np.float64),
        )

    # sorted() is stable, so each length group keeps the records' order.
    groups = [list(group) for _, group in groupby(sorted(records, key=len), key=len)]
    return [(len(group), partial(batch, group)) for group in groups]


def train(
    variant: str,
    records: Iterable[QueryRecord],
    model_config: ModelConfig,
    train_config: TrainConfig,
    seed: int,
) -> tuple[ModelParams, list[float]]:
    """Train a variant on query records; deterministic for a fixed seed.

    Returns the trained parameters and the per-epoch mean per-item training
    loss. ``records`` may be any iterable; it is read once. Raises
    ValidationError, before the first step, naming the first record whose
    feature dimension is not the model's ``d``, and TrainingDiverged with
    epoch/step context if the loss goes non-finite or, after the last epoch,
    naming the first epoch that ended with a non-finite block.
    """
    records = tuple(records)
    if not records:
        raise MirankError("cannot train on an empty dataset")
    model_config.require_d(records)
    rng = make_rng(seed)
    blocks = init_blocks(variant, model_config, rng)
    state = AdamState()
    batch_size = train_config.sequence_batch_size if variant_traits(variant).recurrent else train_config.batch_size
    groups = _training_groups(variant, records)
    n_items = sum(len(record) for record in records)
    curve: list[float] = []
    diverged_at = None
    for epoch in range(train_config.epochs):
        total_loss, step = 0.0, 0
        for size, batch in groups:
            order = rng.permutation(size)
            for start in range(0, size, batch_size):
                loss, grads = batch_loss_and_grads(variant, blocks, *batch(order[start : start + batch_size]))
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"non-finite loss at epoch {epoch}, step {step} ({variant})")
                adam_step(blocks, grads, state, train_config.learning_rate)
                total_loss += loss
                step += 1
        if diverged_at is None and not all(np.isfinite(block).all() for block in blocks.values()):
            diverged_at = epoch
        curve.append(total_loss / n_items)
    if diverged_at is not None:
        raise TrainingDiverged(f"non-finite parameters at the end of epoch {diverged_at} ({variant})")
    return ModelParams(variant=variant, config=model_config, blocks=blocks), curve
