"""Permutation search: optimality, beam/oracle/greedy agreement, rerank guards."""

import hashlib
import itertools

import numpy as np
import pytest

from mirank import ModelConfig, Ranking, init_model
from mirank.configs import VARIANTS
from mirank.features import extend_features
from mirank.metrics import model_policy
from mirank.models import sequence_probabilities_batch
from mirank.configs import ModelParams
from mirank.core import MirankError, NonFiniteError, make_rng
from mirank.ranker import (
    MAX_ORACLE_ITEMS,
    beam_search,
    exhaustive_oracle,
    expected_gmv,
    greedy_reference,
    rank,
    rerank_top_n,
)
from conftest import duplicated_candidates, random_candidates

SMALL = ModelConfig(d=3, hidden_sizes=(5, 4), lstm_hidden=4, attn_size=3, pos_size=2, max_positions=12)
RECURRENT = ("mirnn", "mirnn_attention")


class TestSortOptimality:
    def test_sort_beats_all_permutations_under_decreasing_bias(self):
        """Brute force: for order-independent probabilities, descending
        price-times-probability maximizes sum(bias[pos] * price * p) for any
        strictly decreasing positive bias."""
        for seed in range(6):
            rng = make_rng(seed)
            cs = random_candidates(rng, 5, 3)
            params = init_model("midnn", SMALL, seed=seed)
            result = rank(params, cs)
            scores = np.array(
                [cs.prices[i] * p for i, p in zip(result.ranking.order, result.per_position_probabilities)]
            )
            item_scores = np.empty(5)
            item_scores[list(result.ranking.order)] = scores
            bias = np.sort(rng.uniform(0.05, 1.0, size=5))[::-1]
            assert np.all(np.diff(bias) < 0)
            best = max(
                float(np.sum(bias * item_scores[list(perm)]))
                for perm in itertools.permutations(range(5))
            )
            sort_value = float(np.sum(bias * item_scores[list(result.ranking.order)]))
            assert sort_value >= best - 1e-12

    def test_result_value_matches_expected_gmv(self, rng):
        cs = random_candidates(rng, 6, 3)
        params = init_model("midnn", SMALL, seed=1)
        result = rank(params, cs)
        assert abs(result.expected_gmv - expected_gmv(params, cs, result.ranking)) < 1e-10

    def test_baseline_order_is_descending_in_score(self, rng):
        """The baseline weighs price^gamma; gamma = 0 ranks by probability alone."""
        cs = random_candidates(rng, 6, 3)
        params = init_model("baseline", SMALL, seed=1)
        item_probs = {}
        for gamma in (0.0, 1.0, 1.5, 2.5):
            result = rank(params, cs, gamma=gamma)
            order = list(result.ranking.order)
            probs = np.empty(len(cs))
            probs[order] = result.per_position_probabilities
            scores = cs.prices**gamma * probs
            assert order == sorted(range(len(cs)), key=lambda i: (-scores[i], cs.ids[i]))
            for i, expected in enumerate(probs):
                single = rank(params, cs.take([i]), gamma=gamma).per_position_probabilities[0]
                assert abs(single - expected) < 1e-10
            item_probs[gamma] = probs
        # gamma weighs the prices, never the probabilities
        for probs in item_probs.values():
            assert np.array_equal(probs, item_probs[0.0])

    def test_negative_gamma_rejected(self, rng):
        cs = random_candidates(rng, 4, 3)
        for variant in VARIANTS:
            with pytest.raises(MirankError, match="gamma"):
                rank(init_model(variant, SMALL, seed=0), cs, gamma=-2.0)

    @pytest.mark.parametrize("variant", ("baseline", "midnn"))
    def test_exact_ties_break_by_ascending_id(self, variant):
        cs = duplicated_candidates(make_rng(3), 7, 3, copies=3)
        # give the copies the smaller ids, so id order and index order differ
        cs = cs.take(np.roll(np.arange(len(cs)), -4))
        params = init_model(variant, SMALL, seed=1)
        result = rank(params, cs)
        ids = cs.ids[list(result.ranking.order)].tolist()
        scores = cs.prices[list(result.ranking.order)] * result.per_position_probabilities
        expected = sorted(range(len(cs)), key=lambda j: (-scores[j], ids[j]))
        assert expected == list(range(len(cs)))
        assert len(set(scores.tolist())) == len(cs) - 3  # three exact ties were broken


class TestRankDispatch:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_entry_point_gives_the_same_order(self, variant, rng):
        cs = random_candidates(rng, 7, 3)
        params = init_model(variant, SMALL, seed=2)
        order = rank(params, cs, k=3, gamma=1.5).ranking.order
        assert rerank_top_n(params, Ranking(tuple(range(7))), cs, n=7, k=3, gamma=1.5).order == order
        assert model_policy(params, beam_size=3, gamma=1.5)(cs).order == order
        if params.is_recurrent:
            assert beam_search(params, cs, k=3).ranking.order == order


class TestBeamSearch:
    @pytest.mark.parametrize("variant", RECURRENT)
    def test_wide_beam_matches_exhaustive_oracle(self, variant):
        for seed in range(4):
            cs = random_candidates(make_rng(seed), 5, 3)
            params = init_model(variant, SMALL, seed=seed)
            beam = beam_search(params, cs, k=120)
            oracle = exhaustive_oracle(params, cs)
            assert beam.ranking.order == oracle.ranking.order
            assert abs(beam.expected_gmv - oracle.expected_gmv) < 1e-9

    @pytest.mark.parametrize("variant", RECURRENT)
    def test_unit_beam_matches_greedy_reference(self, variant):
        for seed in range(4):
            cs = random_candidates(make_rng(seed + 10), 6, 3)
            params = init_model(variant, SMALL, seed=seed)
            beam = beam_search(params, cs, k=1)
            greedy = greedy_reference(params, cs)
            assert beam.ranking.order == greedy.ranking.order
            assert abs(beam.expected_gmv - greedy.expected_gmv) < 1e-9

    @pytest.mark.parametrize("variant", RECURRENT)
    def test_oracle_dominates_every_beam_width(self, variant):
        cs = random_candidates(make_rng(42), 6, 3)
        params = init_model(variant, SMALL, seed=7)
        oracle = exhaustive_oracle(params, cs)
        for k in (1, 2, 5, 20):
            result = beam_search(params, cs, k=k)
            assert result.expected_gmv <= oracle.expected_gmv + 1e-9
            assert abs(result.expected_gmv - expected_gmv(params, cs, result.ranking)) < 1e-9

    def test_beam_probabilities_match_full_recompute(self, rng):
        cs = random_candidates(rng, 5, 3)
        params = init_model("mirnn_attention", SMALL, seed=3)
        result = beam_search(params, cs, k=4)
        from mirank.features import extend_features
        from mirank.models import sequence_probabilities

        recomputed = sequence_probabilities(params, extend_features(cs), result.ranking.order)
        assert np.allclose(result.per_position_probabilities, recomputed, atol=1e-10)

    def test_input_guards(self, rng):
        cs = random_candidates(rng, 4, 3)
        recurrent = init_model("mirnn", SMALL, seed=0)
        with pytest.raises(MirankError):
            beam_search(init_model("midnn", SMALL, seed=0), cs, k=2)
        with pytest.raises(MirankError):
            beam_search(recurrent, cs, k=0)
        with pytest.raises(MirankError):
            greedy_reference(init_model("midnn", SMALL, seed=0), cs)


def reference_beam(params, cs, k):
    """Beam search from scratch: every step rescores each kept prefix extended
    by each unplaced item with ``sequence_probabilities_batch``, and keeps the
    top k by GMV, ties by the item-id sequence, then by (entry, item)."""
    feats = extend_features(cs)
    ids = cs.ids.tolist()
    kept = [()]
    for _ in range(len(cs)):
        grown = np.array([prefix + (i,) for prefix in kept for i in range(len(cs)) if i not in prefix])
        probs = sequence_probabilities_batch(params, feats, grown)
        gmvs = (cs.prices[grown] * probs).sum(axis=1)
        best = sorted(range(len(grown)), key=lambda r: (-gmvs[r], [ids[i] for i in grown[r]]))[:k]
        kept = [tuple(grown[r]) for r in best]
    return kept[0], float(gmvs[best[0]])


class TestBeamReference:
    @pytest.mark.parametrize("variant", RECURRENT)
    @pytest.mark.parametrize("k", (1, 3, 8))
    def test_matches_from_scratch_beam(self, variant, k):
        ties = 0
        for trial in range(8):
            rng = make_rng(700 + trial)
            n = int(rng.integers(2, 13))
            # trial 0: all items alike, so every step ties throughout
            copies = n - 1 if trial == 0 else int(rng.integers(1, n // 2 + 1)) if trial % 2 else 0
            cs = duplicated_candidates(rng, n, 3, copies) if copies else random_candidates(rng, n, 3)
            # shuffle, so that id order and index order differ
            cs = cs.take(rng.permutation(n))
            params = init_model(variant, SMALL, seed=trial)
            result = beam_search(params, cs, k)
            order, gmv = reference_beam(params, cs, k)
            assert result.ranking.order == order
            assert abs(result.expected_gmv - gmv) <= 1e-9 * abs(gmv)
            ties += copies
        assert ties > 0


    def test_prefix_ids_decide_ties_before_the_new_item_id(self):
        """A tie between (prefix P, item x) and (prefix Q, item y) with P < Q
        but y < x, cut by the beam width: found by search over seeded cases."""
        rng = make_rng(9006)
        n = int(rng.integers(3, 7))
        cs = duplicated_candidates(rng, n, 3, int(rng.integers(1, n // 2 + 1)))
        cs = cs.take(rng.permutation(n))
        params = init_model("mirnn_attention", SMALL, seed=6)
        assert beam_search(params, cs, 3).ranking.order == reference_beam(params, cs, 3)[0]


# SHA-256 over (order as int64, expected GMV, per-position probabilities) of
# beam_search with the default ModelConfig, taken before the beam step was
# restricted to unplaced pairs: any last-bit drift in the beam fails here.
PINNED_BEAM_DIGESTS = {
    ("mirnn", 50, 5): "43fe4f5ccdb9330401a7246e886f306408af6f03f90a35b6ea2ba8deaa3c3bf5",
    ("mirnn", 20, 20): "2c5aa08a7cbf6710a422fc33ee8fe3518196393bf587068bc596abeeb836dad1",
    ("mirnn_attention", 50, 5): "ebd0ce1c16f2487e440ade551383aaed24519947e703097fa9de6fb4c0dca609",
    ("mirnn_attention", 20, 20): "e6b31f322b76ce0fcd452774fd86396f4f9421e8fd5b02ccb9d97465393bc79f",
}


@pytest.mark.parametrize("variant, n, k", sorted(PINNED_BEAM_DIGESTS))
def test_beam_output_bits_are_pinned(variant, n, k):
    cs = random_candidates(make_rng(n * 100 + k), n, ModelConfig().d)
    result = beam_search(init_model(variant, ModelConfig(), seed=n + k), cs, k)
    digest = hashlib.sha256(np.asarray(result.ranking.order, dtype=np.int64).tobytes())
    digest.update(np.float64(result.expected_gmv).tobytes())
    digest.update(np.asarray(result.per_position_probabilities, dtype=np.float64).tobytes())
    assert digest.hexdigest() == PINNED_BEAM_DIGESTS[variant, n, k]


class TestExhaustiveOracle:
    def test_size_guard(self, rng):
        cs = random_candidates(rng, MAX_ORACLE_ITEMS + 1, 3)
        with pytest.raises(MirankError, match="limited"):
            exhaustive_oracle(init_model("mirnn", SMALL, seed=0), cs)

    def test_feedforward_oracle_agrees_with_sort(self, rng):
        cs = random_candidates(rng, 5, 3)
        params = init_model("midnn", SMALL, seed=2)
        assert abs(exhaustive_oracle(params, cs).expected_gmv - rank(params, cs).expected_gmv) < 1e-10


@pytest.mark.parametrize("variant", VARIANTS)
def test_nan_model_gives_no_gmv(variant, rng):
    """A model that predicts NaN has no expected GMV: every search and
    expected_gmv raise instead of returning NaN (the oracle used to end in a
    ValueError from an empty tie list)."""
    cs = random_candidates(rng, 5, 3)
    fresh = init_model(variant, SMALL, seed=0)
    params = ModelParams(variant, fresh.config, {name: np.full_like(b, np.nan) for name, b in fresh.blocks.items()})
    searches = [
        lambda: rank(params, cs, k=2),
        lambda: rerank_top_n(params, Ranking(tuple(range(5))), cs, n=3, k=2),
        lambda: expected_gmv(params, cs, Ranking(tuple(range(5)))),
        lambda: exhaustive_oracle(params, cs),
    ]
    if params.is_recurrent:
        searches += [lambda: beam_search(params, cs, 2), lambda: greedy_reference(params, cs)]
    for search in searches:
        with pytest.raises(NonFiniteError, match="expected GMV of nan"):
            search()


class TestRerankTopN:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_suffix_is_untouched_and_prefix_is_permuted(self, variant, rng):
        cs = random_candidates(rng, 8, 3)
        params = init_model(variant, SMALL, seed=5)
        base = Ranking(tuple(make_rng(1).permutation(8)))
        out = rerank_top_n(params, base, cs, n=5, k=3)
        assert out.order[5:] == base.order[5:]
        assert sorted(out.order[:5]) == sorted(base.order[:5])

    def test_single_item_prefix_returns_base(self, rng):
        cs = random_candidates(rng, 4, 3)
        base = Ranking((3, 1, 0, 2))
        assert rerank_top_n(init_model("midnn", SMALL, seed=0), base, cs, n=1) == base

    def test_size_guards(self, rng):
        cs = random_candidates(rng, 4, 3)
        params = init_model("midnn", SMALL, seed=0)
        base = Ranking((0, 1, 2, 3))
        with pytest.raises(MirankError):
            rerank_top_n(params, base, cs, n=0)
        with pytest.raises(MirankError):
            rerank_top_n(params, base, cs, n=5)
