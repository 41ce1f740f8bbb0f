"""Model variants, hyperparameter configuration, and the parameter container."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping, Sequence

import numpy as np

from .core import MirankError, QueryRecord, ValidationError, _whole


@dataclass(frozen=True)
class VariantTraits:
    """What sets one scoring policy apart from the others."""

    extended: bool  # scores the global feature extension (2d inputs), not the d local features
    recurrent: bool  # an LSTM conditions each position on the ranked prefix; else an order-free MLP
    attention: bool  # attends over the hidden states of the ranked prefix


#: The four scoring policies and their traits: every decision that depends on
#: the variant reads this table.
VARIANT_TRAITS = {
    "baseline": VariantTraits(extended=False, recurrent=False, attention=False),
    "midnn": VariantTraits(extended=True, recurrent=False, attention=False),
    "mirnn": VariantTraits(extended=True, recurrent=True, attention=False),
    "mirnn_attention": VariantTraits(extended=True, recurrent=True, attention=True),
}
VARIANTS = tuple(VARIANT_TRAITS)
#: Defaults of the beam size and the attention diagnostic's positions.
BEAM_SIZE, ATTENTION_SIZE = 5, 20


def variant_traits(variant) -> VariantTraits:
    """The table row of ``variant``; any other value is a ValidationError."""
    if not isinstance(variant, str) or variant not in VARIANT_TRAITS:
        raise ValidationError(f"unknown model variant {variant!r}")
    return VARIANT_TRAITS[variant]


def coerce_fields(config) -> None:
    """Convert each field of the frozen dataclass ``config`` in place by :func:`coerce`:
    library calls, YAML, flags and model headers meet one type rule."""
    for f in fields(config):
        object.__setattr__(config, f.name, coerce(f.name, getattr(config, f.name), f.default))


def whole_at_least(key: str, value, low: int = 1) -> int:
    """The size argument ``value`` converted to an int by :func:`coerce`; a
    value that does not convert, or one below ``low``, is a ValidationError
    naming the argument ``key``."""
    value = coerce(key, value, 0, "argument")
    if value < low:
        raise ValidationError(f"{key} must be >= {low}, got {value}")
    return value


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes shared by all variants, each a whole number of at
    least 1; the defaults follow the reference setup."""

    d: int = 23
    hidden_sizes: tuple[int, ...] = (50, 50, 30)
    lstm_hidden: int = 50
    attn_size: int = 10
    pos_size: int = 5
    max_positions: int = 100

    def __post_init__(self):
        coerce_fields(self)
        if not self.hidden_sizes or min(self.hidden_sizes) < 1:
            raise ValidationError(f"hidden_sizes must list one or more sizes >= 1, got {self.hidden_sizes}")
        for key in ("d", "lstm_hidden", "attn_size", "pos_size", "max_positions"):
            whole_at_least(key, getattr(self, key))

    def input_dim(self, variant: str) -> int:
        return 2 * self.d if variant_traits(variant).extended else self.d

    def require_d(self, records: Sequence[QueryRecord]) -> None:
        """A ValidationError naming the first of ``records`` whose feature dimension is not ``d``."""
        for record in records:
            d = record.candidate_set.feature_matrix.shape[1]
            if d != self.d:
                raise ValidationError(f"record {record.query_id} has d={d} features, the model takes d={self.d}")


def expected_block_shapes(variant: str, config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Parameter block names and shapes for a variant; the persistence contract.

    The order is also the order in which ``nn.train.init_blocks`` draws the
    blocks, so reordering it changes every fresh and trained model.
    """
    traits = variant_traits(variant)
    f = config.input_dim(variant)
    if not traits.recurrent:
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
    if traits.attention:
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
    def traits(self) -> VariantTraits:
        """The variant's row of :data:`VARIANT_TRAITS`."""
        return VARIANT_TRAITS[self.variant]

    def require(self, operation: str, trait: str, value: bool = True) -> None:
        """Raise a MirankError naming ``operation`` and ``trait`` unless the variant's ``trait`` is ``value``."""
        if getattr(VARIANT_TRAITS[self.variant], trait) != value:
            kind = trait if value else f"non-{trait}"
            article = "an" if kind[0] in "aeiou" else "a"
            raise MirankError(f"{operation} requires {article} {kind} model, got {self.variant!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters; seed-deterministic throughout."""

    epochs: int = 5
    batch_size: int = 256
    sequence_batch_size: int = 32
    learning_rate: float = 1e-3

    def __post_init__(self):
        coerce_fields(self)
        for key in ("epochs", "batch_size", "sequence_batch_size"):
            whole_at_least(key, getattr(self, key))
        if not 0.0 < self.learning_rate < np.inf:
            raise ValidationError(f"learning_rate must be positive and finite, got {self.learning_rate}")


def coerce(key: str, value: Any, default: Any, kind: str = "config key") -> Any:
    """``value`` converted to the type of ``default``: a tuple default takes a
    list of ints, and any other default is a number whose type is called on
    the value. No default takes a bool, and an int default no fraction: neither is cast.
    A number given as text must be a plain ASCII literal such as ``'3'``,
    ``'+5'`` or ``'1e-3'``: no ``_``, no surrounding blanks, no other digits.

    Raises:
        ValidationError: naming ``key`` as a ``kind`` when the value does not convert.
    """
    try:
        if isinstance(default, tuple):
            if not isinstance(value, (list, tuple)):
                raise TypeError("expected a list")
            return tuple(coerce(key, v, 0, kind) for v in value)
        if isinstance(value, bool):
            raise TypeError("expected a number, not a bool")
        if isinstance(value, str):
            if not value.isascii() or "_" in value or value != value.strip():
                raise ValueError("expected a plain ASCII number")
        elif isinstance(default, int) and not _whole(value):
            raise ValueError("expected an integer")
        return type(default)(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{kind} {key!r}: invalid value {value!r} ({exc})") from None


def config_from(cls: type, values: Mapping[str, Any]):
    """The config dataclass ``cls`` built from the values of its fields in ``values``;
    other fields keep their defaults, and other keys are ignored."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})
