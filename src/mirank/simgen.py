"""Synthetic catalog, user-purchase behavior, and query-log generation.

The behavior model is logistic-additive: each mutual-influence effect is a
separately switchable term, so experiments can isolate which model class
captures which effect. Ground-truth purchase probabilities are retrievable
for any displayed order, enabling exact-oracle evaluation of learned models.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .configs import coerce, coerce_fields, whole_at_least
from .core import CandidateSet, MirankError, QueryRecord, ValidationError, make_rng
from .nn.common import sigmoid

__all__ = [
    "BehaviorConfig",
    "Dataset",
    "generate_catalog",
    "generate_logs",
    "session_probabilities",
]


@dataclass(frozen=True)
class BehaviorConfig:
    """Strengths of the simulated purchase-behavior effects.

    Attributes:
        price_sensitivity: Weight on an item's relative price within the
            displayed set; positive means relatively cheap items sell better.
        position_bias_strength: Linear logit decay down the list.
        order_effect_strength: Weight coupling an item's purchase odds to the
            relative prices of the items displayed before it (contrast
            effect: expensive predecessors raise the odds).
        primacy_strength: Lasting influence of the top-2 displayed items on
            every item from position 3 on.
        base_rate: Purchase probability when every effect and the quality
            signal are zero.
        seed: Seed of the fixed quality projection only; labels are drawn
            from the ``seed`` given to ``generate_logs``.
    """

    price_sensitivity: float = 0.0
    position_bias_strength: float = 0.0
    order_effect_strength: float = 0.0
    primacy_strength: float = 0.0
    base_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        coerce_fields(self)
        if not 0.0 < self.base_rate < 1.0:
            raise ValidationError(f"base_rate must be in (0, 1), got {self.base_rate}")
        strengths = (
            self.price_sensitivity,
            self.position_bias_strength,
            self.order_effect_strength,
            self.primacy_strength,
        )
        if not all(np.isfinite(strengths)):
            raise ValidationError(f"behavior strengths must be finite, got {strengths}")

    def quality_weights(self, d: int) -> np.ndarray:
        """Fixed linear projection of local features onto a quality score,
        read-only and drawn once per seed and ``d``.

        The price dimension (feature 0) gets zero weight so quality and price
        stay independent effects; price enters only through the sensitivity
        and contrast terms.
        """
        return _quality_weights(self.seed, d)


@functools.lru_cache(maxsize=64)
def _quality_weights(seed: int, d: int) -> np.ndarray:
    weights = make_rng(seed).standard_normal(d) / np.sqrt(max(d - 1, 1))
    if d > 1:
        weights[0] = 0.0
    weights.setflags(write=False)
    return weights


def _relative_prices(prices: np.ndarray) -> np.ndarray:
    lo, hi = prices.min(), prices.max()
    if hi == lo:
        return np.full(prices.shape, 0.5)
    return (prices - lo) / (hi - lo)


def session_probabilities(config: BehaviorConfig, displayed: CandidateSet) -> np.ndarray:
    """Ground-truth purchase probability per displayed position, all in (0, 1)."""
    feats = displayed.feature_matrix
    n = len(displayed)
    rel = _relative_prices(displayed.prices)
    quality = feats @ config.quality_weights(feats.shape[1])
    logits = np.log(config.base_rate / (1.0 - config.base_rate)) + quality
    logits += config.price_sensitivity * (0.5 - rel)
    logits -= config.position_bias_strength * np.arange(n) / 10.0
    if n > 1 and config.order_effect_strength != 0.0:
        seen_mean = np.cumsum(rel)[:-1] / np.arange(1, n)
        logits[1:] += config.order_effect_strength * (seen_mean - 0.5)
    if n > 2 and config.primacy_strength != 0.0:
        logits[2:] += config.primacy_strength * (rel[:2].mean() - 0.5)
    return sigmoid(logits)


_MIN_PRICE, _MAX_PRICE = 1.0, 100.0


def generate_catalog(n_items: int, d: int, seed: int) -> CandidateSet:
    """Deterministic catalog of ids 0..n-1: log-uniform prices in [1, 100],
    standard-normal features.

    Feature dimension 0 carries the item's price, mirroring real catalogs
    where price is the first local feature; this is what lets the global
    feature extension expose an item's relative price within a set.
    """
    n_items, d = whole_at_least("n_items", n_items), whole_at_least("d", d)
    rng = make_rng(seed)
    prices = np.exp(rng.uniform(np.log(_MIN_PRICE), np.log(_MAX_PRICE), size=n_items))
    feats = rng.standard_normal((n_items, d))
    feats[:, 0] = prices / _MAX_PRICE  # scaled so it trains well; min-max is scale-invariant
    return CandidateSet(np.arange(n_items), prices, feats)


@dataclass(frozen=True)
class Dataset:
    """Query records split into train and test records."""

    train_records: tuple[QueryRecord, ...]
    test_records: tuple[QueryRecord, ...] = ()
    acceptance_rate: float | None = None

    @property
    def records(self) -> tuple[QueryRecord, ...]:
        """Every record, train then test."""
        return self.train_records + self.test_records


def _subset_sampler(catalog: CandidateSet, items_per_query: int) -> Callable:
    """Candidate-subset sampler drawing from a random contiguous band of the
    price-sorted catalog.

    Price-band sampling mimics real queries, whose results share a narrow
    price range; within a band, an item's absolute price says little about
    its relative price in the set, so only set-aware models can see it.
    ``items_per_query`` must be a whole number from 1 to the catalog size.
    """
    items_per_query = whole_at_least("items_per_query", items_per_query)
    if items_per_query > len(catalog):
        raise MirankError(f"items_per_query {items_per_query} exceeds catalog size {len(catalog)}")
    by_price = np.argsort(catalog.prices, kind="stable")
    window = min(len(catalog), 3 * items_per_query)

    def sample(rng):
        start = rng.integers(0, len(catalog) - window + 1)
        return by_price[start + rng.choice(window, size=items_per_query, replace=False)]

    return sample


#: Defaults of the items per query and the share of train records.
ITEMS_PER_QUERY, TRAIN_FRACTION = 50, 0.8

# Give up if fewer than 1 in _MAX_REJECT_FACTOR candidate train records
# survives the at-least-one-purchase filter.
_MAX_REJECT_FACTOR = 200


def generate_logs(
    config: BehaviorConfig,
    catalog: CandidateSet,
    n_queries: int,
    items_per_query: int = ITEMS_PER_QUERY,
    seed: int = 0,
    train_fraction: float = TRAIN_FRACTION,
) -> Dataset:
    """Sample query records: a price-band catalog subset (see
    ``_subset_sampler``), shown in a random order drawn from ``seed``, with
    labels; display position is thus independent of price.

    ``round(n_queries * train_fraction)`` records are train records, the
    rest test. An ``n_queries`` that is not a whole number of at least 0, an
    ``items_per_query`` that is not one from 1 to the catalog size, or a
    ``train_fraction`` that :func:`coerce` rejects (a bool, say) or outside
    [0, 1] raises MirankError. Train records must contain at least one
    purchase; candidates failing the filter are discarded and regenerated.
    Test records are kept as sampled. The dataset's acceptance rate is the
    share of train candidates that passed the filter, or None when no train
    record was drawn.
    """
    n_queries = whole_at_least("n_queries", n_queries, 0)
    train_fraction = coerce("train_fraction", train_fraction, 0.0, "argument")
    if not 0.0 <= train_fraction <= 1.0:
        raise MirankError(f"train_fraction must be in [0, 1], got {train_fraction}")
    sampler = _subset_sampler(catalog, items_per_query)
    rng = make_rng(seed)
    n_train = round(n_queries * train_fraction)
    train: list[QueryRecord] = []
    attempts = 0
    while len(train) < n_train:
        attempts += 1
        if attempts > max(_MAX_REJECT_FACTOR, _MAX_REJECT_FACTOR * n_train):
            raise MirankError(
                "purchase filter rejected almost everything "
                f"(acceptance rate {len(train) / attempts:.4f}); "
                "raise base_rate or items_per_query"
            )
        record = _sample_record(config, catalog, sampler, rng, f"q{len(train):06d}")
        if record.labels.any():
            train.append(record)
    test = [
        _sample_record(config, catalog, sampler, rng, f"q{q:06d}") for q in range(n_train, n_queries)
    ]
    return Dataset(tuple(train), tuple(test), len(train) / attempts if attempts else None)


def _sample_record(config, catalog, sampler, rng, query_id) -> QueryRecord:
    picks = sampler(rng)
    displayed = catalog.take(picks[rng.permutation(len(picks))])
    probs = session_probabilities(config, displayed)
    labels = (rng.random(len(displayed)) < probs).astype(int)
    return QueryRecord(query_id, displayed, labels, probs)
