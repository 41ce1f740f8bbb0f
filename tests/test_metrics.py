"""Evaluation metrics: exact small-case values, invariances, diagnostics."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirank import BehaviorConfig, ModelConfig, extend_features, generate_catalog, init_model
from mirank import metrics, models, nn
from mirank.core import MirankError, NonFiniteError, QueryRecord, Ranking, ValidationError, make_rng
from mirank.metrics import (
    DegenerateLabelsError,
    attention_diagnostic,
    auc,
    compare_policies,
    latency_bench,
    logged_predictions,
    metric_report,
    model_policy,
    rig,
)
from conftest import mixed_length_log, random_candidates

SMALL = ModelConfig(d=3, hidden_sizes=(5, 4), lstm_hidden=4, attn_size=3, pos_size=2, max_positions=24)


class TestAuc:
    def test_hand_computed_value(self):
        # pairs: (0.9,1) beats both negatives, (0.4,1) beats one of two -> 3/4
        assert auc([0.9, 0.8, 0.4, 0.1], [1, 0, 1, 0]) == 0.75

    def test_perfect_and_inverted(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_ties_count_half(self):
        assert auc([0.5, 0.5], [1, 0]) == 0.5

    def test_invariant_under_monotone_transform(self, rng):
        preds = rng.uniform(0.01, 0.99, size=40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        base = auc(preds, labels)
        assert abs(auc(np.log(preds / (1 - preds)), labels) - base) < 1e-12
        assert abs(auc(preds**3, labels) - base) < 1e-12

    def test_degenerate_labels_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            auc([0.1, 0.9], [1, 1])
        with pytest.raises(DegenerateLabelsError):
            auc([], [])

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, np.inf]) | st.floats(allow_nan=False),
                st.integers(0, 1),
            ),
            min_size=2,
            max_size=500,
        )
    )
    @settings(derandomize=True, deadline=None)
    def test_equals_the_rankdata_formula_exactly(self, pairs):
        """The numpy ranks give the bits of scipy.stats.rankdata's average
        ranks, heavy ties, signed zeros and infinities included."""
        from scipy.stats import rankdata

        predictions = np.array([value for value, _ in pairs])
        labels = np.array([label for _, label in pairs])
        labels[:2] = 0, 1
        ranks = rankdata(predictions)
        n_pos = int(labels.sum())
        n_neg = labels.size - n_pos
        expected = float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
        assert auc(predictions, labels) == expected

    def test_nan_prediction_rejected(self):
        with pytest.raises(NonFiniteError, match="1 of 3 predictions are NaN"):
            auc([0.2, np.nan, 0.7], [1, 0, 1])


class TestRig:
    def test_constant_rate_prediction_scores_zero(self):
        labels = [1, 0, 0, 1, 0]
        assert abs(rig([0.4] * 5, labels)) < 1e-12

    def test_perfect_predictions_score_near_one(self):
        assert rig([1.0, 1.0, 0.0], [1, 1, 0]) > 0.999

    def test_worse_than_constant_is_negative(self):
        assert rig([0.05, 0.95], [1, 0]) < 0.0

    def test_nan_prediction_rejected(self):
        with pytest.raises(NonFiniteError, match="2 of 2 predictions are NaN"):
            rig([np.nan, np.nan], [1, 0])

    def test_report_bundles_fields(self):
        report = metric_report([0.9, 0.8, 0.4, 0.1], [1, 0, 1, 0])
        assert report.auc == 0.75
        assert report.n_samples == 4
        assert report.positive_rate == 0.5

    def test_predictions_outside_0_1_rejected(self):
        """rig once clipped them silently and returned -22.25; auc takes any scores."""
        for metric in (rig, metric_report):
            with pytest.raises(ValidationError, match=re.escape("rig takes predictions in [0, 1], got -0.2 to 1.5")):
                metric([1.5, -0.2], [0, 1])
        assert auc([1.5, -0.2], [0, 1]) == 0.0


@pytest.mark.parametrize("predictions, labels, message", (
    ([0.1, 0.2, 0.3], [0, 1], r"1-D of one length, got \(3,\) and \(2,\)"),
    ([[0.1, 0.2]], [[0, 1]], r"1-D of one length, got \(1, 2\) and \(1, 2\)"),
    ([0.1, 0.2], [0, 2], "labels must be 0 or 1, got 2"),
), ids=("lengths-differ", "2-d", "label-2"))
@pytest.mark.parametrize("metric", (auc, rig, metric_report))
def test_metrics_check_their_input(metric, predictions, labels, message):
    """These once ended in a raw IndexError or ValueError, or, for the label
    2, in an AUC of -inf and a RIG of NaN."""
    with pytest.raises(ValidationError, match=message):
        metric(predictions, labels)


class TestComparePolicies:
    def _setup(self):
        catalog = generate_catalog(60, 3, seed=1)
        config = BehaviorConfig(price_sensitivity=2.0, position_bias_strength=1.0, base_rate=0.3, seed=2)
        return catalog, config

    def test_identical_policies_tie_exactly(self):
        catalog, config = self._setup()
        identity = lambda candidates: Ranking(tuple(range(len(candidates))))
        comparison = compare_policies(
            {"a": identity, "b": identity}, config, catalog, n_queries=15, items_per_query=6, seed=3
        )
        mean, stderr = comparison.paired_difference("a", "b")
        assert mean == 0.0 and stderr == 0.0

    def test_a_ranking_that_leaves_out_candidates_is_rejected(self):
        """It was once scored as the shorter list, with no error."""
        catalog, config = self._setup()
        policies = {"full": model_policy(init_model("midnn", SMALL, seed=0)), "short": lambda _: Ranking((1, 0))}
        with pytest.raises(ValidationError, match="^policy 'short'.s ranking length 2 differs from the candidate set size 5$"):
            compare_policies(policies, config, catalog, n_queries=2, items_per_query=5, seed=3)

    def test_deterministic_and_consistent_stats(self):
        catalog, config = self._setup()
        policy = model_policy(init_model("midnn", SMALL, seed=4))
        reverse = lambda candidates: Ranking(tuple(reversed(range(len(candidates)))))
        run = lambda: compare_policies(
            {"model": policy, "reverse": reverse}, config, catalog, n_queries=10, items_per_query=6, seed=5
        )
        a, b = run(), run()
        assert np.array_equal(a.gmv, b.gmv)
        assert a.gmv.shape == (10, 2)
        mean, stderr = a.paired_difference("model", "reverse")
        assert abs(mean - (a.gmv[:, 0].mean() - a.gmv[:, 1].mean())) < 1e-9
        assert stderr > 0.0

    def test_model_policy_covers_all_variants(self, rng):
        cs = random_candidates(rng, 5, 3)
        for variant in ("baseline", "midnn", "mirnn", "mirnn_attention"):
            policy = model_policy(init_model(variant, SMALL, seed=0), beam_size=2)
            ranking = policy(cs)
            assert sorted(ranking.order) == list(range(5))


class TestAttentionDiagnostic:
    def _records(self, length, count=3):
        rng = make_rng(9)
        records = []
        for q in range(count):
            cs = random_candidates(rng, length, 3)
            records.append(QueryRecord(f"q{q}", cs, [1] + [0] * (length - 1)))
        return records

    def test_two_position_row_is_exactly_one(self):
        params = init_model("mirnn_attention", SMALL, seed=1)
        matrix = attention_diagnostic(params, self._records(4), size=4)
        assert matrix.n_records == 3
        assert abs(matrix.values[1, 0] - 1.0) < 1e-12

    def test_rows_sum_to_one(self):
        params = init_model("mirnn_attention", SMALL, seed=1)
        matrix = attention_diagnostic(params, self._records(6), size=6)
        for i in range(2, 7):
            assert abs(matrix.values[i - 1, : i - 1].sum() - 1.0) < 1e-10

    def test_zero_score_weights_give_uniform_rows(self):
        params = init_model("mirnn_attention", SMALL, seed=1)
        params = dataclasses.replace(params, blocks={**params.blocks, "w_g": np.zeros_like(params.blocks["w_g"])})
        matrix = attention_diagnostic(params, self._records(5), size=5)
        for i in range(2, 6):
            assert np.allclose(matrix.values[i - 1, : i - 1], 1.0 / (i - 1))

    def test_short_records_are_skipped_and_none_left_raises(self):
        params = init_model("mirnn_attention", SMALL, seed=1)
        short = self._records(3)
        with pytest.raises(MirankError, match="length"):
            attention_diagnostic(params, short, size=10)

    def test_requires_attention_variant(self):
        with pytest.raises(MirankError, match="^attention_diagnostic requires an attention model, got 'mirnn'$"):
            attention_diagnostic(init_model("mirnn", SMALL, seed=0), self._records(4), size=4)


MIXED_LENGTHS = (9, 4, 12, 6, 9, 15, 4, 12, 7, 9)


def _per_record_predictions(params, record):
    candidates = record.candidate_set
    if params.variant == "baseline":
        return models.item_probabilities(params, candidates.feature_matrix)
    feats = extend_features(candidates)
    if params.variant == "midnn":
        return models.item_probabilities(params, feats)
    return models.sequence_probabilities(params, feats, [range(len(record))])[0]


class TestLoggedPredictions:
    @pytest.mark.parametrize("variant", ["baseline", "midnn", "mirnn", "mirnn_attention"])
    def test_matches_per_record_scoring_in_log_order(self, variant, monkeypatch):
        # Two records per chunk, so equal-length records span several chunks.
        monkeypatch.setattr(metrics, "LOG_CHUNK", 2)
        records = mixed_length_log(MIXED_LENGTHS, d=3)
        params = init_model(variant, SMALL, seed=2)
        extended = [extend_features(r.candidate_set) for r in records]
        batched, attention = logged_predictions(params, extended)
        expected = np.concatenate([_per_record_predictions(params, r) for r in records])
        assert attention is None
        assert batched.shape == expected.shape
        assert np.max(np.abs(batched - expected)) <= 1e-12

    def test_baseline_gives_repeated_items_one_probability(self):
        """An item's local features do not depend on its record, so every
        occurrence must score bit-identically, whatever the record's length
        or the item's row in it."""
        records = mixed_length_log((20, 13, 7, 31, 20, 5, 26, 11), d=23)
        params = init_model("baseline", ModelConfig(d=23), seed=3)
        probs, _ = logged_predictions(params, [extend_features(r.candidate_set) for r in records])
        by_item: dict[int, set] = {}
        ids = [item_id for r in records for item_id in r.candidate_set.ids.tolist()]
        for item_id, p in zip(ids, probs):
            by_item.setdefault(item_id, set()).add(float(p))
        repeated = [item_id for item_id in by_item if ids.count(item_id) > 1]
        assert len(repeated) >= 20
        assert all(len(by_item[item_id]) == 1 for item_id in repeated)

    @pytest.mark.parametrize("variant", ["baseline", "midnn", "mirnn", "mirnn_attention"])
    def test_rejects_records_not_at_the_extended_width(self, variant, rng):
        """Every record must be (n, 2d), whatever the variant reads of it.
        mirnn and mirnn_attention once ended in numpy's raw matmul ValueError
        on width-8 rows, a log of widths 6 and 8 in np.vstack's or np.stack's,
        the baseline scored width-7 rows from their first 3 columns, and
        named all-zero rows by their shape after np.unique."""
        params = init_model(variant, SMALL, seed=0)
        good = rng.standard_normal((4, 6))
        logs = [
            ([rng.standard_normal((4, 8))], 0),
            ([good, rng.standard_normal((4, 8))], 1),
            ([rng.standard_normal((4, 7))], 0),
            ([np.zeros((4, 8))], 0),
            ([good, good[0]], 1),
        ]
        for extended, index in logs:
            shape = re.escape(str(extended[index].shape))
            with pytest.raises(ValidationError, match=rf"^{variant} scores records of 6 extended features, "
                                                      rf"record {index} has shape {shape}$"):
                logged_predictions(params, extended, attention_size=2)
        if params.traits.attention:
            wide = mixed_length_log((4, 5), d=4)
            for records in (wide, mixed_length_log((4, 5), d=3) + wide):
                index = len(records) - len(wide)
                with pytest.raises(ValidationError, match=rf"^{variant} scores records of 6 extended features, "
                                                          rf"record {index} has shape \(4, 8\)$"):
                    attention_diagnostic(params, records, size=2)


    @pytest.mark.parametrize("variant", ["baseline", "midnn", "mirnn", "mirnn_attention"])
    def test_rejects_an_empty_log_and_an_attention_size_below_1_or_not_whole(self, variant, rng):
        """Both are checked before any scoring. An empty log once ended in
        numpy's raw "need at least one array to concatenate" ValueError;
        attention_size 0 gave mirnn_attention an empty (0, 0) matrix, -1 a
        raw ValueError, and 2.5 or True a raw TypeError."""
        params = init_model(variant, SMALL, seed=0)
        with pytest.raises(ValidationError, match=rf"^{variant} needs at least one record to score$"):
            logged_predictions(params, [])
        log = [rng.standard_normal((4, 6))]
        for size in (0, -1, 2.5, True):
            with pytest.raises(ValidationError, match="attention_size"):
                logged_predictions(params, log, attention_size=size)
        if params.traits.attention:
            with pytest.raises(ValidationError, match=r"^no records of length >= 2 for the attention diagnostic$"):
                logged_predictions(params, [], attention_size=2)
            for size in (0, -1, 2.5, True):
                with pytest.raises(ValidationError, match="attention_size"):
                    attention_diagnostic(params, mixed_length_log((4, 5), d=3), size=size)
            with pytest.raises(ValidationError, match=r"^no records of length >= 2 for the attention diagnostic$"):
                attention_diagnostic(params, [], size=2)

class TestBatchedAttentionDiagnostic:
    SIZE = 6

    def _reference(self, params, records, size):
        """Per-record average of the weights over each qualifying record's prefix."""
        total = np.zeros((size, size))
        qualifying = [r for r in records if len(r) >= size]
        for record in qualifying:
            feats = extend_features(record.candidate_set)[:size]
            alphas = nn.sequence_forward(params.blocks, feats[None])[1]["alphas"]
            for i in range(2, size + 1):
                total[i - 1, : i - 1] += alphas[i - 1][0]
        return total / len(qualifying), len(qualifying)

    def test_matches_per_record_average(self, monkeypatch):
        monkeypatch.setattr(metrics, "LOG_CHUNK", 2)
        records = mixed_length_log(MIXED_LENGTHS, d=3)
        params = init_model("mirnn_attention", SMALL, seed=6)
        expected, count = self._reference(params, records, self.SIZE)
        assert any(len(r) > self.SIZE for r in records)
        matrix = attention_diagnostic(params, records, size=self.SIZE)
        assert matrix.n_records == count
        assert np.max(np.abs(matrix.values - expected)) <= 1e-12

    def test_read_from_the_scoring_forward_pass(self):
        """The diagnostic is the matrix that scoring the whole log reads,
        bit for bit."""
        records = mixed_length_log(MIXED_LENGTHS, d=3)
        params = init_model("mirnn_attention", SMALL, seed=6)
        extended = [extend_features(r.candidate_set) for r in records]
        probs, matrix = logged_predictions(params, extended, attention_size=self.SIZE)
        alone, _ = logged_predictions(params, extended)
        direct = attention_diagnostic(params, records, size=self.SIZE)
        assert np.array_equal(probs, alone)
        assert matrix.n_records == direct.n_records
        assert np.array_equal(matrix.values, direct.values)

    def test_other_variants_ignore_attention_size(self):
        records = mixed_length_log(MIXED_LENGTHS, d=3)
        extended = [extend_features(r.candidate_set) for r in records]
        for variant in ("baseline", "midnn", "mirnn"):
            _, matrix = logged_predictions(init_model(variant, SMALL, seed=0), extended, attention_size=4)
            assert matrix is None


class TestLatencyBench:
    def test_profile_shape_and_slopes_present(self):
        models = {
            "midnn": init_model("midnn", SMALL, seed=0),
            "mirnn": init_model("mirnn", SMALL, seed=0),
        }
        profile = latency_bench(models, rerank_sizes=[4, 8], beam_sizes=[1, 2], repetitions=2, seed=0)
        # midnn ignores beam size (one sweep), mirnn runs both beam sizes
        assert len(profile.rows) == 2 + 4
        assert set(profile.slope_vs_n) == {"midnn", "mirnn"}
        assert set(profile.slope_vs_k) == {"mirnn"}
        for row in profile.rows:
            assert row["median_seconds"] >= row["min_seconds"] > 0.0

    def test_repeated_sizes_count_once_and_fit_no_slope(self):
        """A line fitted through one distinct size has no meaningful slope, so
        repeats count once and no slope is reported for a single size."""
        models = {"mirnn": init_model("mirnn", SMALL, seed=0)}
        profile = latency_bench(models, rerank_sizes=[4, 4], beam_sizes=[2, 2], repetitions=1, seed=0)
        assert [(row["rerank_size"], row["beam_size"]) for row in profile.rows] == [(4, 2)]
        assert profile.slope_vs_n == {} and profile.slope_vs_k == {}
        profile = latency_bench(models, rerank_sizes=[4, 8, 4], beam_sizes=[1, 2, 1], repetitions=1, seed=0)
        assert len(profile.rows) == 4
        assert set(profile.slope_vs_n) == set(profile.slope_vs_k) == {"mirnn"}

    @pytest.mark.parametrize("models", [
        {},
        {"midnn": init_model("midnn", SMALL, seed=0), "mirnn": init_model("mirnn", dataclasses.replace(SMALL, d=4), seed=0)},
    ], ids=["none", "two-d"])
    def test_needs_models_of_one_d_before_any_draw(self, models, monkeypatch):
        """No model once raised a raw StopIteration, and models of two d drew
        the candidates at the first one's d, failing in another model's matmul."""
        def no_draw(*args):
            raise AssertionError("a catalog was drawn")

        monkeypatch.setattr(metrics, "generate_catalog", no_draw)
        dims = {name: params.config.d for name, params in models.items()}
        with pytest.raises(ValidationError, match=re.escape(f"one or more models of one d, got d={dims}")):
            latency_bench(models, rerank_sizes=[2, 3], beam_sizes=[1], repetitions=1, seed=0)

    @pytest.mark.parametrize("changes, message", [
        ({"repetitions": 0}, "repetitions must be >= 1, got 0"),
        ({"repetitions": -1}, "repetitions must be >= 1, got -1"),
        ({"repetitions": 1.5}, "argument 'repetitions': invalid value 1.5 (expected an integer)"),
        ({"rerank_sizes": []}, "latency_bench takes one or more rerank_sizes, got none"),
        ({"beam_sizes": []}, "latency_bench takes one or more beam_sizes, got none"),
        ({"rerank_sizes": [0, 3]}, "rerank_sizes must be >= 1, got 0"),
        ({"beam_sizes": [1, 1.5]}, "argument 'beam_sizes': invalid value 1.5 (expected an integer)"),
    ], ids=["zero-reps", "negative-reps", "fractional-reps", "no-rerank-sizes", "no-beam-sizes",
            "zero-rerank-size", "fractional-beam-size"])
    def test_rejects_bad_repetitions_and_sizes_before_any_draw(self, changes, message, monkeypatch):
        """Repetitions of 0 once ended in min()'s raw ValueError and 1.5 in a
        raw TypeError; no beam size, in a raw ValueError; no rerank size gave
        an empty profile. A rerank size of 0 was named n_items and a beam size
        of 1.5 named k, arguments the caller never passed."""
        def no_draw(*args):
            raise AssertionError("a catalog was drawn")

        monkeypatch.setattr(metrics, "generate_catalog", no_draw)
        models = {"midnn": init_model("midnn", SMALL, seed=0), "mirnn": init_model("mirnn", SMALL, seed=0)}
        arguments = {"rerank_sizes": [2, 3], "beam_sizes": [1], "repetitions": 1, "seed": 0, **changes}
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            latency_bench(models, **arguments)

    @pytest.mark.parametrize("seed", [-5, 1.5, True, 2**64], ids=["negative", "fractional", "bool", "too-large"])
    def test_rejects_a_bad_seed_before_any_draw(self, seed, monkeypatch):
        """latency_bench once ran on seed -5, since only (seed + n) mod 2**64
        reached a check, and on seed 1.5 named 3.5, a value never given."""
        def no_draw(*args):
            raise AssertionError("a catalog was drawn")

        monkeypatch.setattr(metrics, "generate_catalog", no_draw)
        models = {"mirnn": init_model("mirnn", SMALL, seed=0)}
        with pytest.raises(ValidationError, match=f"seed must be a 64-bit unsigned integer, got {seed!r}$"):
            latency_bench(models, rerank_sizes=[2, 3], beam_sizes=[1], repetitions=1, seed=seed)
