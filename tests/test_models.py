"""Scoring policies: batched paths pinned against their one-at-a-time twins."""

import numpy as np
import pytest

from mirank import BehaviorConfig, ModelConfig, QueryRecord, TrainConfig, init_model, nn, train
from mirank.configs import VARIANT_TRAITS, VARIANTS, ModelParams, expected_block_shapes
from mirank.core import MirankError, Ranking, ValidationError, make_rng
from mirank.features import extend_features
from mirank.metrics import compare_policies, model_policy
from mirank.models import (
    advance_entries,
    input_projection,
    item_probabilities,
    sequence_probabilities,
)
from mirank.nn.recurrent import representations, softmax
from mirank.ranker import beam_search, exhaustive_oracle, expected_gmv, greedy_reference, rank, rerank_top_n
from mirank.simgen import generate_catalog, generate_logs
from conftest import chain_entry, random_candidates

SMALL = ModelConfig(d=3, hidden_sizes=(5, 4), lstm_hidden=4, attn_size=3, pos_size=2, max_positions=12)
RECURRENT = ("mirnn", "mirnn_attention")


class TestInitModel:
    def test_deterministic_and_variant_tagged(self):
        a = init_model("mirnn", SMALL, seed=3)
        b = init_model("mirnn", SMALL, seed=3)
        assert a.variant == "mirnn"
        for name in a.blocks:
            assert np.array_equal(a.blocks[name], b.blocks[name])

    def test_different_seeds_differ(self):
        a = init_model("midnn", SMALL, seed=1)
        b = init_model("midnn", SMALL, seed=2)
        assert not np.array_equal(a.blocks["W1"], b.blocks["W1"])


@pytest.mark.parametrize("variant", VARIANT_TRAITS)
def test_traits_agree_with_the_blocks(variant, rng):
    """Each row of the variant table matches the blocks the variant gets and
    the blocks nn.recurrent dispatches on: attention <=> w_ctx and w_g,
    recurrent <=> Wh, extended <=> 2d inputs."""
    traits = VARIANT_TRAITS[variant]
    shapes = expected_block_shapes(variant, SMALL)
    assert ("w_ctx" in shapes) == ("w_g" in shapes) == traits.attention
    assert ("Wh" in shapes) == traits.recurrent
    assert SMALL.input_dim(variant) == (2 if traits.extended else 1) * SMALL.d
    assert shapes["Wx" if traits.recurrent else "W1"][1] == SMALL.input_dim(variant)
    params = init_model(variant, SMALL, seed=0)
    assert params.traits is traits
    if traits.recurrent:
        x = rng.standard_normal((1, 3, SMALL.input_dim(variant)))
        assert bool(nn.sequence_forward(params.blocks, x)[1]["alphas"]) == traits.attention


@pytest.mark.parametrize("variant", ["lstm", "", None, ["midnn"]])
def test_unknown_variant_is_validation(variant, rng):
    record = QueryRecord("q", random_candidates(rng, 3, SMALL.d), [1, 0, 0])
    calls = (
        lambda: init_model(variant, SMALL, seed=0),
        lambda: train(variant, [record], SMALL, TrainConfig(epochs=1), seed=0),
        lambda: expected_block_shapes(variant, SMALL),
    )
    for call in calls:
        with pytest.raises(ValidationError, match="unknown model variant"):
            call()


@pytest.mark.parametrize("cls, values, key", [
    (ModelConfig, {"d": 2.5}, "d"),
    (ModelConfig, {"hidden_sizes": (4.5,)}, "hidden_sizes"),
    (ModelConfig, {"lstm_hidden": True}, "lstm_hidden"),
    (TrainConfig, {"epochs": 1.5}, "epochs"),
    (TrainConfig, {"learning_rate": True}, "learning_rate"),
    (BehaviorConfig, {"seed": 1.5}, "seed"),
], ids=("fractional-d", "fractional-hidden-size", "bool-lstm-hidden", "fractional-epochs", "bool-learning-rate",
        "fractional-seed"))
def test_library_configs_take_the_yaml_rule(cls, values, key):
    """A library config converts its values as YAML, flags and model headers
    do: a fraction for an integer, or a bool for a number, once constructed
    and ended later in a raw TypeError."""
    with pytest.raises(ValidationError, match=f"config key '{key}'"):
        cls(**values)


_MIRNN, _BASELINE = init_model("mirnn", SMALL, seed=0), init_model("baseline", SMALL, seed=0)
_FIVE = random_candidates(make_rng(0), 5, 3)
#: Each size argument of the library, as a call of its value, and the name it goes by.
SIZE_CALLS = {
    "rank-k": (lambda v: rank(_MIRNN, _FIVE, k=v), "k"),
    "beam_search-k": (lambda v: beam_search(_MIRNN, _FIVE, v), "k"),
    "rerank_top_n-baseline-n": (lambda v: rerank_top_n(_BASELINE, Ranking(tuple(range(5))), _FIVE, v), "n"),
    "rerank_top_n-mirnn-n": (lambda v: rerank_top_n(_MIRNN, Ranking(tuple(range(5))), _FIVE, v), "n"),
    "generate_catalog-n_items": (lambda v: generate_catalog(v, 3, 1), "n_items"),
    "generate_catalog-d": (lambda v: generate_catalog(4, v, 1), "d"),
    "generate_logs-n_queries": (lambda v: generate_logs(BehaviorConfig(), _FIVE, v, 3), "n_queries"),
    "generate_logs-items_per_query": (lambda v: generate_logs(BehaviorConfig(), _FIVE, 2, v), "items_per_query"),
    "compare_policies-n_queries": (
        lambda v: compare_policies({"m": model_policy(_MIRNN)}, BehaviorConfig(), _FIVE, v, 3, 0), "n_queries"),
}


@pytest.mark.parametrize("value", (2.5, True), ids=("fraction", "bool"))
@pytest.mark.parametrize("call", sorted(SIZE_CALLS))
def test_library_sizes_take_the_yaml_rule(call, value):
    """A size argument converts as an integer config key does, and the error
    names it as an argument. A fraction once ended in a raw TypeError or
    ValueError, and a bool ran as 1."""
    run, key = SIZE_CALLS[call]
    with pytest.raises(ValidationError, match=f"^argument '{key}': invalid value"):
        run(value)


@pytest.mark.parametrize("learning_rate", [0.0, -1.0, float("inf"), float("nan")])
def test_learning_rate_must_be_positive_and_finite(learning_rate):
    with pytest.raises(ValidationError, match="learning_rate must be positive and finite"):
        TrainConfig(learning_rate=learning_rate)


def test_model_params_reject_blocks_of_another_variant():
    blocks = init_model("midnn", SMALL, seed=0).blocks
    with pytest.raises(ValidationError, match="parameter blocks do not match variant 'mirnn'"):
        ModelParams("mirnn", SMALL, blocks)


def test_library_configs_convert_numpy_numbers():
    config = ModelConfig(d=np.int64(3), hidden_sizes=[np.int64(5), 4.0])
    assert (config.d, config.hidden_sizes) == (3, (5, 4))
    assert type(config.d) is int and all(type(size) is int for size in config.hidden_sizes)
    assert type(TrainConfig(learning_rate=np.float32(0.5)).learning_rate) is float


class TestFeedForwardScoring:
    def test_midnn_batch_matches_single(self, rng):
        params = init_model("midnn", SMALL, seed=0)
        feats = extend_features(random_candidates(rng, 6, 3))
        batch = item_probabilities(params, feats)
        for row, expected in zip(feats, batch):
            assert abs(item_probabilities(params, row[None, :])[0] - expected) < 1e-12

    def test_baseline_batch_matches_single_and_sorts_by_price_times_p(self, rng):
        params = init_model("baseline", SMALL, seed=0)
        cs = random_candidates(rng, 5, 3)
        batch = item_probabilities(params, cs.feature_matrix)
        for row, expected in zip(cs.feature_matrix, batch):
            assert abs(item_probabilities(params, row[None, :])[0] - expected) < 1e-12
        result = rank(params, cs)
        order = list(result.ranking.order)
        assert np.allclose(result.per_position_probabilities, batch[order], rtol=0, atol=1e-12)
        scores = cs.prices * batch
        assert order == sorted(range(len(cs)), key=lambda i: (-scores[i], cs.ids[i]))

    def test_variant_guards(self, rng):
        """Each guard names the operation and the trait it needs."""
        midnn = init_model("midnn", SMALL, seed=0)
        cs = random_candidates(rng, 3, 3)
        feats = extend_features(cs)
        calls = {
            "advance_entries": lambda: advance_entries(
                midnn, np.zeros((1, 4)), np.zeros((1, 4)), np.zeros((1, 0, 4)), None, 1, cs.feature_matrix
            ),
            "sequence_probabilities": lambda: sequence_probabilities(midnn, feats, [[0, 1, 2]]),
            "input_projection": lambda: input_projection(midnn, feats),
        }
        for operation, call in calls.items():
            with pytest.raises(MirankError, match=rf"^{operation} requires a recurrent model, got 'midnn'$"):
                call()
        with pytest.raises(MirankError, match=r"^item_probabilities requires a non-recurrent model, got 'mirnn'$"):
            item_probabilities(init_model("mirnn", SMALL, seed=0), feats)

    @pytest.mark.parametrize("variant, extended", [
        ("mirnn", True), ("mirnn_attention", True), ("midnn", False), ("baseline", True),
    ])
    def test_item_probabilities_rejects_a_recurrent_model_or_rows_of_another_width(self, variant, extended, rng):
        """Each is a MirankError: a midnn given local rows once ended in a raw
        ValueError from the MLP's matmul."""
        cs = random_candidates(rng, 3, SMALL.d)
        rows = extend_features(cs) if extended else cs.feature_matrix
        with pytest.raises(MirankError, match="recurrent|features"):
            item_probabilities(init_model(variant, SMALL, seed=0), rows)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("d", [SMALL.d - 1, SMALL.d + 1])
def test_every_scoring_path_rejects_rows_of_another_width(variant, d, rng):
    """Every models entry and ranker path checks the width once per call;
    mirnn and mirnn_attention once ended in numpy's raw matmul ValueError."""
    params = init_model(variant, SMALL, seed=0)
    cs = random_candidates(rng, 3, d)
    feats = extend_features(cs)
    calls = [
        lambda: rank(params, cs),
        lambda: expected_gmv(params, cs, Ranking((0, 1, 2))),
        lambda: exhaustive_oracle(params, cs),
    ]
    if params.traits.recurrent:
        calls += [
            lambda: beam_search(params, cs, 2),
            lambda: greedy_reference(params, cs),
            lambda: input_projection(params, feats),
            lambda: sequence_probabilities(params, feats, [[0, 1, 2]]),
        ]
    width = SMALL.input_dim(variant)
    for call in calls:
        with pytest.raises(ValidationError, match=rf"^{variant} scores rows of {width} features, got shape \(3, "):
            call()


@pytest.mark.parametrize("variant", RECURRENT)
@pytest.mark.parametrize("position", [0, -1])
def test_advance_entries_rejects_a_position_below_1(variant, position, rng):
    """mirnn once advanced entries at position 0 without error, and
    mirnn_attention ended in a raw ValueError from nn."""
    params = init_model(variant, SMALL, seed=0)
    projected = input_projection(params, extend_features(random_candidates(rng, 3, SMALL.d)))
    state = np.zeros((1, SMALL.lstm_hidden))
    history, caches = np.zeros((1, 3, SMALL.lstm_hidden)), np.zeros((1, 3, SMALL.attn_size))
    with pytest.raises(ValidationError, match=rf"^advance_entries takes a 1-based position, got {position}$"):
        advance_entries(params, state, state, history, caches, position, projected)


def _entries(params, feats, prefixes):
    """Stacked kernel state of beam entries that placed ``prefixes`` (equal lengths)."""
    states = [chain_entry(params, feats, prefix)[1] for prefix in prefixes]
    return tuple(None if parts[0] is None else np.concatenate(parts) for parts in zip(*states))


class TestSequentialScoring:
    @pytest.mark.parametrize("variant", RECURRENT)
    def test_incremental_chain_matches_full_sequence(self, variant, rng):
        params = init_model(variant, SMALL, seed=4)
        feats = extend_features(random_candidates(rng, 6, 3))
        order = list(rng.permutation(6))
        full = sequence_probabilities(params, feats, [order])[0]
        assert np.allclose(chain_entry(params, feats, order)[0], full, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", RECURRENT)
    def test_batch_expansion_matches_single_advances(self, variant, rng):
        """A call on a subset of the items equals the all-items call at those
        items, down to a single item, with the subset's rows projected alone
        or taken from the whole set's projection."""
        params = init_model(variant, SMALL, seed=4)
        feats = extend_features(random_candidates(rng, 6, 3))
        # three divergent beam entries, each two items deep
        state = _entries(params, feats, [(0, 1), (2, 3), (4, 5)])
        projected = input_projection(params, feats)
        full = advance_entries(params, *state, 3, projected)
        for subset in ([4, 0, 2], [5]):
            for given in (input_projection(params, feats[subset]), projected[subset]):
                part = advance_entries(params, *state, 3, given)
                for got, want in zip(part, full):
                    if want is None:
                        assert got is None
                    else:
                        assert np.allclose(got, want[:, subset], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", RECURRENT)
    def test_unplaced_items_match_the_all_items_call_bit_for_bit(self, variant, rng):
        """``items`` restricts each entry to its unplaced items, as beam search
        passes them; every requested pair equals the all-items call exactly."""
        params = init_model(variant, SMALL, seed=4)
        feats = extend_features(random_candidates(rng, 6, 3))
        state = _entries(params, feats, [(0, 1), (2, 3), (4, 5)])
        projected = input_projection(params, feats)
        full = advance_entries(params, *state, 3, projected)
        items = np.array([[2, 3, 4, 5], [0, 1, 4, 5], [0, 1, 2, 3]])
        part = advance_entries(params, *state, 3, projected, items=items)
        for got, want in zip(part, full):
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got, want[np.arange(3)[:, None], items])

    @pytest.mark.parametrize("variant", RECURRENT)
    def test_entry_batch_matches_per_entry_expansion(self, variant, rng):
        params = init_model(variant, SMALL, seed=4)
        feats = extend_features(random_candidates(rng, 6, 3))
        hiddens, cells, histories, rep_caches = _entries(params, feats, [(0, 1), (2, 3), (4, 5)])
        projected = input_projection(params, feats)
        batch = advance_entries(params, hiddens, cells, histories, rep_caches, 3, projected)
        for e in range(3):
            single = advance_entries(
                params, hiddens[e : e + 1], cells[e : e + 1], histories[e : e + 1],
                None if rep_caches is None else rep_caches[e : e + 1], 3, projected,
            )
            for got, want in zip(single, batch):
                if want is None:
                    assert got is None
                else:
                    assert np.allclose(got[0], want[e], rtol=0, atol=1e-12)

    def test_first_position_attention_context_is_inactive(self, rng):
        """At position 1 there are no predecessors, so the attention logit
        reduces to the plain output projection of the hidden state."""
        params = init_model("mirnn_attention", SMALL, seed=4)
        feats = extend_features(random_candidates(rng, 4, 3))
        h_dim = SMALL.lstm_hidden
        probs, hidden, _, _ = advance_entries(
            params, np.zeros((1, h_dim)), np.zeros((1, h_dim)), np.zeros((1, 0, h_dim)),
            np.zeros((1, 0, SMALL.attn_size)), 1, input_projection(params, feats),
        )
        from mirank.nn import sigmoid

        assert np.allclose(probs, sigmoid(hidden @ params.blocks["w_out"]), atol=1e-14)

    def test_sequence_batch_matches_per_order(self, rng):
        params = init_model("mirnn", SMALL, seed=4)
        feats = extend_features(random_candidates(rng, 5, 3))
        orders = np.array([rng.permutation(5) for _ in range(4)])
        batch = sequence_probabilities(params, feats, orders)
        for row, order in zip(batch, orders):
            assert np.allclose(row, sequence_probabilities(params, feats, [order])[0], atol=1e-13)

    def test_attention_weights_shape_and_normalization(self, rng):
        params = init_model("mirnn_attention", SMALL, seed=4)
        feats = extend_features(random_candidates(rng, 5, 3))
        alphas = nn.sequence_forward(params.blocks, feats[None])[1]["alphas"]
        assert len(alphas) == 5
        assert alphas[0] is None
        for pos, alpha in enumerate(alphas[1:], start=1):
            assert alpha.shape == (1, pos)
            assert abs(alpha.sum() - 1.0) < 1e-12
            assert np.all(alpha >= 0.0)

    def test_attention_weights_require_attention_variant(self, rng):
        params = init_model("mirnn", SMALL, seed=4)
        feats = extend_features(random_candidates(rng, 4, 3))
        assert nn.sequence_forward(params.blocks, feats[None])[1]["alphas"] == []


def _advance_with_broadcast_fill(params, hiddens, cells, histories, rep_caches, position, projected, items):
    """:func:`advance_entries` as it was before its pair tensor was filled by
    half-row copies: two broadcast assignments of doubles per entry. Kept as
    the reference that the half-row fill must match bit for bit."""
    blocks = params.blocks
    n_entries, n_items = len(hiddens), len(projected)
    rows = np.arange(n_entries)[:, None]
    z = projected[items]
    z += (hiddens @ blocks["Wh"].T + blocks["b"])[:, None, :]
    hidden_new, cell_new, _ = nn.cell_update(z, cells[:, None, :])
    hidden_all = np.zeros((n_entries, n_items, hidden_new.shape[2]))
    hidden_all[rows, items] = hidden_new
    logits = hidden_all @ blocks["w_out"]
    attn_dim = params.config.attn_size
    reps = representations(blocks, hidden_all, position)
    t = position - 1
    scores = np.empty(reps.shape[:2] + (t,))
    pairs = np.empty((n_items, t, 2 * attn_dim))
    for e in range(n_entries):
        pairs[:, :, :attn_dim] = reps[e, :, None, :]
        pairs[:, :, attn_dim:] = rep_caches[e, None, :t, :]
        np.matmul(pairs, blocks["w_g"], out=scores[e])
    alpha = softmax(np.maximum(scores, 0.0, out=scores))
    logits += (alpha @ histories[:, :t]) @ blocks["w_ctx"]
    return nn.sigmoid(logits[rows, items]), hidden_new, cell_new, reps[rows, items]


@pytest.mark.parametrize("draw", range(3))
@pytest.mark.parametrize("attn_size", [1, 3, 10, 17])
def test_half_row_pair_fill_matches_the_broadcast_fill_bit_for_bit(attn_size, draw):
    """The attention step's pair tensor, filled by whole half-row copies,
    gives the same probabilities, states and representations as the
    broadcast fill, for random entry counts, item counts and positions, an
    ``items`` narrower than N, and rep caches wider than position - 1."""
    rng = make_rng(1000 * attn_size + draw)
    config = ModelConfig(d=3, hidden_sizes=(5,), lstm_hidden=6, attn_size=attn_size, pos_size=2, max_positions=12)
    params = init_model("mirnn_attention", config, seed=draw)
    n_entries, n_items = int(rng.integers(1, 7)), int(rng.integers(4, 15))
    position = int(rng.integers(3, n_items + 1))  # two predecessors or more, so their order counts
    width = position - 1 + int(rng.integers(0, 4))
    feats = extend_features(random_candidates(rng, n_items, config.d))
    h_dim = config.lstm_hidden
    hiddens, cells = rng.standard_normal((2, n_entries, h_dim))
    histories = rng.standard_normal((n_entries, width, h_dim))
    rep_caches = np.maximum(rng.standard_normal((n_entries, width, attn_size)), 0.0)
    narrower = np.sort(np.argsort(rng.random((n_entries, n_items)))[:, : n_items - position + 1], axis=1)
    all_items = np.broadcast_to(np.arange(n_items), (n_entries, n_items))
    for items in (all_items, narrower):
        state = (hiddens, cells, histories, rep_caches, position, input_projection(params, feats))
        got = advance_entries(params, *state, items=items)
        want = _advance_with_broadcast_fill(params, *state, items)
        for name, a, b in zip(("probs", "hidden", "cell", "reps"), got, want):
            assert a.shape == b.shape and np.array_equal(a, b), name
