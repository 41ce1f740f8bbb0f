"""Shared helpers for building small random instances."""

from __future__ import annotations

import numpy as np
import pytest

from mirank import CandidateSet, Item
from mirank.core import QueryRecord, make_rng


def random_candidates(rng: np.random.Generator, n: int, d: int) -> CandidateSet:
    """A valid random candidate set with distinct ids and positive prices."""
    items = tuple(
        Item(
            id=i,
            price=float(np.exp(rng.uniform(0.0, np.log(100.0)))),
            local_features=rng.standard_normal(d),
        )
        for i in range(n)
    )
    return CandidateSet(items)


def mixed_length_log(lengths, d: int, catalog_size: int = 40, seed: int = 31) -> list[QueryRecord]:
    """Records of the given lengths drawn from one shared catalog, so the same
    item recurs at different positions in records of different lengths."""
    rng = make_rng(seed)
    catalog = [
        Item(id=i, price=float(rng.uniform(1.0, 50.0)), local_features=rng.standard_normal(d))
        for i in range(catalog_size)
    ]
    records = []
    for q, n in enumerate(lengths):
        chosen = rng.choice(catalog_size, size=n, replace=False)
        labels = (rng.random(n) < 0.4).astype(int)
        labels[0], labels[-1] = 1, 0
        records.append(QueryRecord(f"q{q}", tuple(catalog[i] for i in chosen), tuple(labels)))
    return records


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(12345)
