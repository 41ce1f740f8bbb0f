"""Shared domain types: items, candidate sets, rankings, and query records.

All types are immutable after construction and safe to share across
concurrent tasks. Positions are 1-based in docstrings (matching common
ranking terminology) and 0-based in code; the conversion happens at the
public function boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Item",
    "CandidateSet",
    "Ranking",
    "QueryRecord",
    "MirankError",
    "ValidationError",
    "make_rng",
    "validate_candidate_set",
]


class MirankError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MirankError):
    """A domain invariant was violated by user-supplied data."""


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed; no global RNG state is used."""
    if not 0 <= int(seed) < 2**64:
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return np.random.Generator(np.random.PCG64(int(seed)))


@dataclass(frozen=True)
class Item:
    """One ranking unit: an id, a price, and a local feature vector.

    Attributes:
        id: Unique non-negative integer within a candidate set.
        price: Positive price in currency units.
        local_features: Float vector of fixed dimension d, identical across
            all items of one candidate set.
    """

    id: int
    price: float
    local_features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.local_features, dtype=np.float64)
        feats.setflags(write=False)
        object.__setattr__(self, "local_features", feats)
        object.__setattr__(self, "price", float(self.price))
        object.__setattr__(self, "id", int(self.id))


@dataclass(frozen=True)
class CandidateSet:
    """The ordered list of items to be ranked for one query."""

    items: tuple[Item, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))

    def __len__(self) -> int:
        return len(self.items)

    @property
    def prices(self) -> np.ndarray:
        return np.array([item.price for item in self.items])

    @property
    def feature_matrix(self) -> np.ndarray:
        """Local features stacked row-wise, shape (N, d)."""
        return np.stack([item.local_features for item in self.items])


@dataclass(frozen=True)
class Ranking:
    """A permutation of candidate-set indices (0-based positions into the set)."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(i) for i in self.order)
        if sorted(order) != list(range(len(order))):
            raise ValidationError(f"order {order} is not a permutation of 0..{len(order) - 1}")
        object.__setattr__(self, "order", order)

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class QueryRecord:
    """One logged impression: displayed items in display order plus purchase labels.

    Attributes:
        query_id: Identifier of the query.
        displayed: Items in the order shown to the user.
        labels: Binary purchase labels, parallel to ``displayed``.
        ground_truth_probs: Optional simulator purchase probabilities, parallel
            to ``displayed``; present for synthetic data only.
    """

    query_id: str
    displayed: tuple[Item, ...]
    labels: tuple[int, ...]
    ground_truth_probs: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "displayed", tuple(self.displayed))
        object.__setattr__(self, "labels", tuple(int(y) for y in self.labels))
        if len(self.labels) != len(self.displayed):
            raise ValidationError(
                f"record {self.query_id}: {len(self.labels)} labels for "
                f"{len(self.displayed)} items"
            )
        if any(y not in (0, 1) for y in self.labels):
            raise ValidationError(f"record {self.query_id}: labels must be 0 or 1")
        if self.ground_truth_probs is not None:
            probs = tuple(float(p) for p in self.ground_truth_probs)
            if len(probs) != len(self.displayed):
                raise ValidationError(
                    f"record {self.query_id}: {len(probs)} ground-truth probabilities "
                    f"for {len(self.displayed)} items"
                )
            object.__setattr__(self, "ground_truth_probs", probs)

    @property
    def candidate_set(self) -> CandidateSet:
        return CandidateSet(self.displayed)

    def __len__(self) -> int:
        return len(self.displayed)


def validate_candidate_set(candidates: CandidateSet) -> CandidateSet:
    """Check all candidate-set invariants and return the set unchanged.

    Each invariant is checked over the whole set's id, price and feature
    arrays at once.

    Raises:
        ValidationError: on negative or duplicate ids, prices that are not
            positive and finite, features that are not vectors of one
            dimension, or non-finite feature values; the message names the
            first offending item id.
    """
    items = candidates.items
    if not items:
        raise ValidationError("candidate set must contain at least one item")
    ids = [item.id for item in items]
    if min(ids) < 0:
        raise ValidationError(f"item {next(i for i in ids if i < 0)}: id must be non-negative")
    if len(set(ids)) < len(ids):
        duplicate = next(i for k, i in enumerate(ids) if i in ids[:k])
        raise ValidationError(f"duplicate item id {duplicate} in candidate set")
    prices = candidates.prices
    valid = np.isfinite(prices) & (prices > 0)
    if not valid.all():
        i = np.argmin(valid)
        raise ValidationError(f"item {ids[i]}: price must be positive and finite, got {prices[i]}")
    shapes = [item.local_features.shape for item in items]
    if len(shapes[0]) != 1:
        raise ValidationError(f"item {ids[0]}: local features must be a vector, got shape {shapes[0]}")
    if shapes.count(shapes[0]) != len(shapes):
        i = next(i for i, shape in enumerate(shapes) if shape != shapes[0])
        raise ValidationError(
            f"item {ids[i]}: feature dimension {shapes[i]} differs from the set's dimension {shapes[0]}"
        )
    # The shapes are equal, so one concatenation holds every feature; it costs
    # a fraction of np.stack on a 20-item set.
    finite = np.isfinite(np.concatenate([item.local_features for item in items]))
    if not finite.all():
        i = np.argmin(finite) // shapes[0][0]
        raise ValidationError(f"item {ids[i]}: local features contain non-finite values")
    return candidates
