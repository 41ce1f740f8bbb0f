"""Synthetic catalog, user-purchase behavior, and query-log generation.

The behavior model is logistic-additive: each mutual-influence effect is a
separately switchable term, so experiments can isolate which model class
captures which effect. Ground-truth purchase probabilities are retrievable
for any displayed order, enabling exact-oracle evaluation of learned models.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Item, MirankError, QueryRecord, ValidationError, make_rng
from .nn.common import sigmoid

__all__ = [
    "BehaviorConfig",
    "Dataset",
    "generate_catalog",
    "generate_logs",
    "session_probabilities",
    "simulate_session",
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
        seed: Seed for label sampling and the fixed quality projection.
    """

    price_sensitivity: float = 0.0
    position_bias_strength: float = 0.0
    order_effect_strength: float = 0.0
    primacy_strength: float = 0.0
    base_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
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
        """Fixed linear projection of local features onto a quality score.

        The price dimension (feature 0) gets zero weight so quality and price
        stay independent effects; price enters only through the sensitivity
        and contrast terms.
        """
        weights = make_rng(self.seed).standard_normal(d) / np.sqrt(max(d - 1, 1))
        if d > 1:
            weights[0] = 0.0
        return weights


def _relative_prices(prices: np.ndarray) -> np.ndarray:
    lo, hi = prices.min(), prices.max()
    if hi == lo:
        return np.full(prices.shape, 0.5)
    return (prices - lo) / (hi - lo)


def session_probabilities(config: BehaviorConfig, displayed: Sequence[Item]) -> np.ndarray:
    """Ground-truth purchase probability per displayed position, all in (0, 1)."""
    if not displayed:
        raise MirankError("session needs at least one displayed item")
    prices = np.array([item.price for item in displayed])
    feats = np.stack([item.local_features for item in displayed])
    n = len(displayed)
    rel = _relative_prices(prices)
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


def simulate_session(
    config: BehaviorConfig,
    displayed: Sequence[Item],
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Sample one binary purchase label per item, independently per position."""
    if rng is None:
        rng = make_rng(config.seed)
    probs = session_probabilities(config, displayed)
    return (rng.random(len(probs)) < probs).astype(int)


def generate_catalog(
    n_items: int,
    d: int,
    seed: int,
    price_range: tuple[float, float] = (1.0, 100.0),
) -> list[Item]:
    """Deterministic catalog: log-uniform prices, standard-normal features.

    Feature dimension 0 carries the item's price, mirroring real catalogs
    where price is the first local feature; this is what lets the global
    feature extension expose an item's relative price within a set.
    """
    if n_items < 1:
        raise MirankError(f"n_items must be >= 1, got {n_items}")
    rng = make_rng(seed)
    prices = np.exp(rng.uniform(np.log(price_range[0]), np.log(price_range[1]), size=n_items))
    feats = rng.standard_normal((n_items, d))
    feats[:, 0] = prices / price_range[1]  # scaled so it trains well; min-max is scale-invariant
    return [Item(id=i, price=prices[i], local_features=feats[i]) for i in range(n_items)]


@dataclass(frozen=True)
class Dataset:
    """Query records with train/test split tags and the generation config."""

    records: tuple[QueryRecord, ...]
    tags: tuple[str, ...] | None = None
    config: dict | None = None
    acceptance_rate: float | None = None

    def __post_init__(self):
        if self.tags is not None and len(self.tags) != len(self.records):
            raise ValidationError(
                f"{len(self.tags)} split tags for {len(self.records)} records"
            )

    def _split(self, tag: str) -> tuple[QueryRecord, ...]:
        if self.tags is None:
            return self.records
        return tuple(r for r, t in zip(self.records, self.tags) if t == tag)

    @property
    def train_records(self) -> tuple[QueryRecord, ...]:
        return self._split("train")

    @property
    def test_records(self) -> tuple[QueryRecord, ...]:
        return self._split("test")

    def __len__(self) -> int:
        return len(self.records)


def _subset_sampler(catalog: Sequence[Item], items_per_query: int, mode: str) -> Callable:
    """Candidate-subset sampler: uniform over the catalog, or from a random
    contiguous band of the price-sorted catalog.

    Price-band sampling mimics real queries, whose results share a narrow
    price range; within a band, an item's absolute price says little about
    its relative price in the set, so only set-aware models can see it.
    """
    if mode == "uniform":
        return lambda rng: rng.choice(len(catalog), size=items_per_query, replace=False)
    if mode == "price_band":
        by_price = np.argsort([item.price for item in catalog], kind="stable")
        window = min(len(catalog), 3 * items_per_query)

        def sample(rng):
            start = rng.integers(0, len(catalog) - window + 1)
            return by_price[start + rng.choice(window, size=items_per_query, replace=False)]

        return sample
    raise MirankError(f"unknown subset sampling mode {mode!r}; use 'uniform' or 'price_band'")


RANKING_POLICIES: dict[str, Callable] = {
    "random": lambda items, rng: rng.permutation(len(items)),
    "as_sampled": lambda items, rng: np.arange(len(items)),
    "price_desc": lambda items, rng: np.argsort([-item.price for item in items], kind="stable"),
    "price_asc": lambda items, rng: np.argsort([item.price for item in items], kind="stable"),
}

# Give up if fewer than 1 in _MAX_REJECT_FACTOR candidate train records
# survives the at-least-one-purchase filter.
_MAX_REJECT_FACTOR = 200


def generate_logs(
    config: BehaviorConfig,
    catalog: Sequence[Item],
    n_queries: int,
    items_per_query: int = 50,
    ranking_policy: str = "random",
    seed: int = 0,
    train_fraction: float = 0.8,
    subset_sampling: str = "price_band",
) -> Dataset:
    """Sample query records: a catalog subset, ordered by policy, with labels.

    Train records must contain at least one purchase; candidates failing the
    filter are discarded and regenerated. Test records are kept as sampled.
    The dataset's acceptance rate is the share of train candidates that
    passed the filter, or None when no train record was drawn.
    """
    if items_per_query > len(catalog):
        raise MirankError(
            f"items_per_query {items_per_query} exceeds catalog size {len(catalog)}"
        )
    if ranking_policy not in RANKING_POLICIES:
        raise MirankError(
            f"unknown ranking policy {ranking_policy!r}; choose from {sorted(RANKING_POLICIES)}"
        )
    policy = RANKING_POLICIES[ranking_policy]
    sampler = _subset_sampler(catalog, items_per_query, subset_sampling)
    rng = make_rng(seed)
    n_train = round(n_queries * train_fraction)
    records: list[QueryRecord] = []
    tags: list[str] = []
    attempts = 0
    accepted = 0
    while accepted < n_train:
        attempts += 1
        if attempts > max(_MAX_REJECT_FACTOR, _MAX_REJECT_FACTOR * n_train):
            raise MirankError(
                "purchase filter rejected almost everything "
                f"(acceptance rate {accepted / attempts:.4f}); "
                "raise base_rate or items_per_query"
            )
        record = _sample_record(config, catalog, sampler, policy, rng, f"q{len(records):06d}")
        if not any(record.labels):
            continue
        accepted += 1
        records.append(record)
        tags.append("train")
    for _ in range(n_queries - n_train):
        record = _sample_record(config, catalog, sampler, policy, rng, f"q{len(records):06d}")
        records.append(record)
        tags.append("test")
    snapshot = asdict(config) | {
        "n_queries": n_queries,
        "items_per_query": items_per_query,
        "ranking_policy": ranking_policy,
        "subset_sampling": subset_sampling,
        "generation_seed": seed,
        "train_fraction": train_fraction,
    }
    return Dataset(
        records=tuple(records),
        tags=tuple(tags),
        config=snapshot,
        acceptance_rate=accepted / attempts if attempts else None,
    )


def _sample_record(config, catalog, sampler, policy, rng, query_id) -> QueryRecord:
    subset = [catalog[i] for i in sampler(rng)]
    order = policy(subset, rng)
    displayed = tuple(subset[i] for i in order)
    probs = session_probabilities(config, displayed)
    labels = (rng.random(len(displayed)) < probs).astype(int)
    return QueryRecord(
        query_id=query_id,
        displayed=displayed,
        labels=tuple(labels),
        ground_truth_probs=tuple(probs),
    )
