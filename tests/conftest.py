"""Shared helpers for building small random instances."""

from __future__ import annotations

import numpy as np
import pytest

from mirank import CandidateSet
from mirank.core import QueryRecord, make_rng
from mirank.models import advance_entries, input_projection


def random_candidates(rng: np.random.Generator, n: int, d: int) -> CandidateSet:
    """A valid random candidate set with distinct ids and positive prices."""
    prices, features = [], []
    for _ in range(n):  # one price, then one feature vector, per item
        prices.append(np.exp(rng.uniform(0.0, np.log(100.0))))
        features.append(rng.standard_normal(d))
    return CandidateSet(np.arange(n), prices, features)


def duplicated_candidates(rng: np.random.Generator, n: int, d: int, copies: int) -> CandidateSet:
    """A random set of ``n - copies`` items followed by ``copies`` clones of
    them, taken in turn, with the same price and features under new ids, so
    scores can tie exactly. ``copies = n - 1`` makes every item alike."""
    base = random_candidates(rng, n - copies, d)
    sources = np.concatenate([np.arange(n - copies), np.arange(copies) % (n - copies)])
    return CandidateSet(np.arange(n), base.prices[sources], base.feature_matrix[sources])


def chain_entry(params, extended: np.ndarray, order):
    """Place ``order`` one position at a time with :func:`advance_entries`:
    one entry advanced with one item (a one-row feature matrix) per step.

    Returns (per-position probabilities, final kernel state), the state being
    the E=1 (hiddens, cells, histories, rep_caches) a next call takes.
    """
    h_dim = params.config.lstm_hidden
    hidden, cell = np.zeros((1, h_dim)), np.zeros((1, h_dim))
    history = np.zeros((1, 0, h_dim))
    rep_cache = np.zeros((1, 0, params.config.attn_size)) if params.variant == "mirnn_attention" else None
    probs = []
    for position, item in enumerate(order, start=1):
        prob, hidden, cell, rep = advance_entries(
            params, hidden, cell, history, rep_cache, position, input_projection(params, extended[item : item + 1])
        )
        hidden, cell = hidden[:, 0], cell[:, 0]
        probs.append(prob[0, 0])
        history = np.concatenate([history, hidden[:, None, :]], axis=1)
        if rep_cache is not None:
            rep_cache = np.concatenate([rep_cache, rep[:, 0][:, None, :]], axis=1)
    return np.array(probs), (hidden, cell, history, rep_cache)


def mixed_length_log(lengths, d: int, catalog_size: int = 40, seed: int = 31) -> list[QueryRecord]:
    """Records of the given lengths drawn from one shared catalog, so the same
    item recurs at different positions in records of different lengths."""
    rng = make_rng(seed)
    prices, features = [], []
    for _ in range(catalog_size):
        prices.append(rng.uniform(1.0, 50.0))
        features.append(rng.standard_normal(d))
    catalog = CandidateSet(np.arange(catalog_size), prices, features)
    records = []
    for q, n in enumerate(lengths):
        chosen = rng.choice(catalog_size, size=n, replace=False)
        labels = (rng.random(n) < 0.4).astype(int)
        labels[0], labels[-1] = 1, 0
        records.append(QueryRecord(f"q{q}", catalog.take(chosen), labels))
    return records


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(12345)
