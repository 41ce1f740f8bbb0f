"""Model variants, hyperparameter configuration, and the parameter container."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import ValidationError

#: The four scoring policies. "baseline" scores items from local features
#: only; the mutual-influence models consume the global feature extension.
VARIANTS = ("baseline", "midnn", "mirnn", "mirnn_attention")
RECURRENT_VARIANTS = ("mirnn", "mirnn_attention")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes shared by all variants.

    Defaults follow the reference setup: 23 local features (46 after
    extension), MLP hidden sizes (50, 50, 30), LSTM hidden size 50,
    attention representation size 10, position embedding size 5.
    """

    d: int = 23
    hidden_sizes: tuple[int, ...] = (50, 50, 30)
    lstm_hidden: int = 50
    attn_size: int = 10
    pos_size: int = 5
    max_positions: int = 100

    def input_dim(self, variant: str) -> int:
        return self.d if variant == "baseline" else 2 * self.d


def expected_block_shapes(variant: str, config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Parameter block names and shapes for a variant; the persistence contract."""
    if variant not in VARIANTS:
        raise ValidationError(f"unknown model variant {variant!r}")
    f = config.input_dim(variant)
    if variant not in RECURRENT_VARIANTS:
        shapes: dict[str, tuple[int, ...]] = {}
        fan_in = f
        for k, size in enumerate(config.hidden_sizes, start=1):
            shapes[f"W{k}"] = (size, fan_in)
            shapes[f"b{k}"] = (size,)
            fan_in = size
        shapes["W_out"] = (1, fan_in)
        shapes["b_out"] = (1,)
        return shapes
    h = config.lstm_hidden
    shapes = {"Wx": (4 * h, f), "Wh": (4 * h, h), "b": (4 * h,), "w_out": (h,)}
    if variant == "mirnn_attention":
        shapes["w_ctx"] = (h,)
        shapes["W_a"] = (config.attn_size, config.pos_size + h)
        shapes["w_g"] = (2 * config.attn_size,)
        shapes["pos_emb"] = (config.max_positions, config.pos_size)
    return shapes


@dataclass(frozen=True)
class ModelParams:
    """A variant tag, its parameter blocks, and the configuration snapshot."""

    variant: str
    config: ModelConfig
    blocks: dict[str, np.ndarray]

    def __post_init__(self):
        expected = expected_block_shapes(self.variant, self.config)
        actual = {name: tuple(arr.shape) for name, arr in self.blocks.items()}
        if actual != expected:
            raise ValidationError(
                f"parameter blocks do not match variant {self.variant!r}: "
                f"expected {expected}, got {actual}"
            )

    @property
    def is_recurrent(self) -> bool:
        return self.variant in RECURRENT_VARIANTS

    def with_blocks(self, overrides: dict[str, np.ndarray]) -> "ModelParams":
        """A copy with the named parameter blocks replaced; shapes re-checked."""
        return replace(self, blocks={**self.blocks, **overrides})


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters; seed-deterministic throughout."""

    epochs: int = 5
    batch_size: int = 256
    sequence_batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
