"""Metamorphic relations that every correct ranking keeps, for all four
variants, fresh and trained: the same candidates given in another order, at
doubled prices or under relabelled ids, are ranked the same way, bit for
bit. One known non-relation, a record's scores in a log, is bounded."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mirank import CandidateSet, ModelConfig, Ranking, TrainConfig, init_model
from mirank.configs import VARIANTS
from mirank.core import make_rng
from mirank.metrics import logged_predictions
from mirank.nn.train import train
from mirank.ranker import rank, rerank_top_n
from conftest import mixed_length_log

SMALL = ModelConfig(d=3, hidden_sizes=(5, 4), lstm_hidden=4, attn_size=3, pos_size=2, max_positions=12)
# 120 records of 2 to 12 items from one 40-item catalog.
LOG = mixed_length_log(tuple(make_rng(5).integers(2, 13, size=120).tolist()), d=3)
MODELS = {variant: init_model(variant, SMALL, seed=14) for variant in VARIANTS}
TRAINED = {variant: train(variant, LOG[:24], SMALL, TrainConfig(epochs=2), seed=14)[0] for variant in VARIANTS}


@st.composite
def _cases(draw):
    """A candidate set of 1 to 7 items, prices and features drawn from a few
    values each so that scores can tie, a permutation of its positions, and a
    beam size."""
    n = draw(st.integers(1, 7))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    prices = draw(st.lists(st.sampled_from((0.5, 1.25, 3.0, 40.0)) | st.floats(0.5, 100.0), min_size=n, max_size=n))
    values = st.sampled_from((-1.0, 0.0, 0.5)) | st.floats(-3.0, 3.0)
    features = draw(st.lists(st.lists(values, min_size=3, max_size=3), min_size=n, max_size=n))
    return CandidateSet(ids, prices, features), draw(st.permutations(range(n))), draw(st.integers(1, 4))


@pytest.mark.parametrize("params", [pytest.param(MODELS[variant], id=variant) for variant in VARIANTS]
                         + [pytest.param(TRAINED[variant], id=f"{variant}-trained") for variant in VARIANTS])
@seed(14)
@settings(max_examples=60, deadline=None)
@given(case=_cases())
def test_rankings_keep_their_symmetries(params, case):
    candidates, perm, k = case
    result = rank(params, candidates, k)
    order = list(result.ranking.order)
    ids = candidates.ids[order].tolist()

    shuffled = candidates.take(perm)
    moved = rank(params, shuffled, k)
    assert shuffled.ids[list(moved.ranking.order)].tolist() == ids
    assert moved.expected_gmv.hex() == result.expected_gmv.hex()

    doubled = rank(params, CandidateSet(candidates.ids, 2.0 * candidates.prices, candidates.feature_matrix), k)
    assert list(doubled.ranking.order) == order
    assert doubled.expected_gmv == 2.0 * result.expected_gmv

    relabelled = CandidateSet(3 * candidates.ids + 7, candidates.prices, candidates.feature_matrix)
    assert list(rank(params, relabelled, k).ranking.order) == order

    for base in (tuple(range(len(candidates))), tuple(perm)):
        assert rerank_top_n(params, Ranking(base), candidates, len(candidates), k) == result.ranking


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_record_scores_alike_alone_and_in_a_log_within_a_bound(variant):
    """Not a relation: a recurrent record's probabilities can differ in the
    last bit with the records batched beside it, so they agree only within
    1e-15; a feed-forward model's agree exactly."""
    params = TRAINED[variant]
    alone, _ = logged_predictions(params, LOG[:7])
    inside = logged_predictions(params, LOG)[0][: len(alone)]
    if params.traits.recurrent:
        assert np.max(np.abs(alone - inside)) <= 1e-15
    else:
        assert np.array_equal(alone, inside)
