"""Synthetic behavior model: effect directions, invariances, log generation."""

import numpy as np
import pytest

from mirank import BehaviorConfig, generate_catalog, generate_logs
from mirank.core import CandidateSet, MirankError, ValidationError, make_rng
from mirank.simgen import session_probabilities


def _flat_items(prices):
    """Items with zero features so only price-driven effects are active."""
    return CandidateSet(np.arange(len(prices)), prices, np.zeros((len(prices), 3)))


class TestBehaviorConfig:
    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_base_rate(self, rate):
        with pytest.raises(ValidationError):
            BehaviorConfig(base_rate=rate)

    def test_rejects_non_finite_strength(self):
        with pytest.raises(ValidationError):
            BehaviorConfig(price_sensitivity=float("inf"))

    def test_quality_weights_deterministic_and_price_blind(self):
        config = BehaviorConfig(seed=5)
        w = config.quality_weights(6)
        assert np.array_equal(w, config.quality_weights(6))
        assert w[0] == 0.0
        assert np.any(w != 0.0)

    def test_quality_weights_are_drawn_once_and_read_only(self):
        """One projection per seed and d, shared by every record it scores,
        so no caller can change it for the others."""
        w = BehaviorConfig(seed=5).quality_weights(6)
        assert BehaviorConfig(seed=5, base_rate=0.3).quality_weights(6) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[1] = 0.0
        assert BehaviorConfig(seed=6).quality_weights(6) is not w


class TestSessionProbabilities:
    def test_all_effects_off_gives_base_rate(self):
        config = BehaviorConfig(base_rate=0.3)
        probs = session_probabilities(config, _flat_items([5.0, 20.0, 80.0]))
        assert np.allclose(probs, 0.3)

    def test_probabilities_are_valid(self):
        config = BehaviorConfig(
            price_sensitivity=3.0,
            position_bias_strength=2.0,
            order_effect_strength=3.0,
            primacy_strength=3.0,
            base_rate=0.2,
        )
        probs = session_probabilities(config, _flat_items([1.0, 50.0, 100.0, 10.0]))
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_price_sensitivity_favors_cheap_items(self):
        config = BehaviorConfig(price_sensitivity=2.0, base_rate=0.2)
        probs = session_probabilities(config, _flat_items([1.0, 100.0]))
        assert probs[0] > probs[1]

    def test_position_bias_decays_down_the_list(self):
        config = BehaviorConfig(position_bias_strength=2.0, base_rate=0.2)
        probs = session_probabilities(config, _flat_items([10.0] * 5))
        assert np.all(np.diff(probs) < 0.0)

    def test_order_effect_contrast_with_expensive_predecessor(self):
        config = BehaviorConfig(order_effect_strength=3.0, base_rate=0.2)
        cheap_target_pricey = _flat_items([1.0, 50.0, 100.0])
        after_pricey = session_probabilities(config, cheap_target_pricey.take([2, 1, 0]))
        after_cheap = session_probabilities(config, cheap_target_pricey)
        assert after_pricey[1] > after_cheap[1]

    def test_primacy_expensive_leaders_lift_the_tail(self):
        config = BehaviorConfig(primacy_strength=4.0, base_rate=0.2)
        rich_top_items = _flat_items([100.0, 90.0, 1.0, 2.0])
        rich_top = session_probabilities(config, rich_top_items)
        poor_top = session_probabilities(config, rich_top_items.take([2, 3, 0, 1]))
        # items have zero features, so only the leaders' prices matter
        assert np.all(rich_top[2:] > poor_top[2:])

    def test_order_invariance_without_sequential_effects(self):
        config = BehaviorConfig(price_sensitivity=2.0, base_rate=0.25, seed=3)
        rng = make_rng(0)
        prices, features = [], []
        for _ in range(6):
            prices.append(rng.uniform(1, 100))
            features.append(rng.standard_normal(3))
        items = CandidateSet(np.arange(6), prices, features)
        base = session_probabilities(config, items)
        perm = rng.permutation(6)
        shuffled = session_probabilities(config, items.take(perm))
        assert np.allclose(shuffled, base[perm])

    def test_empty_session_rejected(self):
        # An empty session cannot be built: the candidate set rejects it.
        with pytest.raises(MirankError):
            session_probabilities(BehaviorConfig(), CandidateSet([], [], []))


class TestSessionLabels:
    """Labels that generate_logs samples from the session probabilities."""

    def test_labels_binary_and_reproducible(self):
        config = BehaviorConfig(price_sensitivity=1.0, base_rate=0.4, seed=7)
        catalog = _flat_items([1.0, 10.0, 100.0])
        a, b = (generate_logs(config, catalog, 20, items_per_query=3, seed=11) for _ in range(2))
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.labels, rb.labels)
            assert set(np.unique(ra.labels)) <= {0, 1}

    def test_label_rate_tracks_probabilities(self):
        config = BehaviorConfig(base_rate=0.3)
        # No train records, so no purchase filter skews the rate.
        logs = generate_logs(config, _flat_items([5.0] * 60), 200, items_per_query=50, seed=2, train_fraction=0.0)
        probs = np.concatenate([r.ground_truth_probs for r in logs.records])
        assert np.allclose(probs, 0.3)
        assert abs(np.mean([r.labels.mean() for r in logs.records]) - 0.3) < 0.02


class TestGenerateCatalog:
    def test_deterministic_with_price_in_feature_zero(self):
        a = generate_catalog(20, 4, seed=9)
        b = generate_catalog(20, 4, seed=9)
        assert isinstance(a, CandidateSet) and np.array_equal(a.ids, np.arange(20))
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.feature_matrix, b.feature_matrix)
        assert np.all((a.prices >= 1.0) & (a.prices <= 100.0))
        assert np.allclose(a.feature_matrix[:, 0], a.prices / 100.0)

    def test_rejects_empty_catalog(self):
        with pytest.raises(MirankError):
            generate_catalog(0, 3, seed=0)
        with pytest.raises(MirankError):
            generate_catalog(5, 0, seed=0)


class TestDataset:
    def test_split_tags(self):
        catalog = generate_catalog(30, 3, seed=1)
        data = generate_logs(BehaviorConfig(base_rate=0.4), catalog, n_queries=10, items_per_query=5, seed=2)
        assert len(data.train_records) == 8
        assert len(data.test_records) == 2
        assert len(data.records) == 10
        assert data.records == data.train_records + data.test_records
        assert [record.query_id for record in data.records] == [f"q{q:06d}" for q in range(10)]


class TestGenerateLogs:
    def test_train_records_have_a_purchase_and_truth_is_attached(self):
        catalog = generate_catalog(40, 3, seed=3)
        data = generate_logs(BehaviorConfig(base_rate=0.25), catalog, n_queries=20, items_per_query=6, seed=4)
        for record in data.train_records:
            assert record.labels.any()
        for record in data.records:
            assert record.ground_truth_probs is not None
            assert len(record.ground_truth_probs) == 6
        assert 0.0 < data.acceptance_rate <= 1.0

    def test_deterministic(self):
        catalog = generate_catalog(40, 3, seed=3)
        config = BehaviorConfig(price_sensitivity=1.0, base_rate=0.25)
        a = generate_logs(config, catalog, n_queries=12, items_per_query=5, seed=6)
        b = generate_logs(config, catalog, n_queries=12, items_per_query=5, seed=6)
        for ra, rb in zip(a.records, b.records):
            assert ra.query_id == rb.query_id
            assert np.array_equal(ra.labels, rb.labels)
            assert np.array_equal(ra.candidate_set.ids, rb.candidate_set.ids)

    def test_price_band_subsets_are_narrow(self):
        catalog = generate_catalog(200, 3, seed=3)
        data = generate_logs(
            BehaviorConfig(base_rate=0.4), catalog, n_queries=30, items_per_query=10, seed=9
        )
        catalog_span = np.ptp(catalog.prices)
        spans = [np.ptp(r.candidate_set.prices) for r in data.records]
        assert np.median(spans) < 0.5 * catalog_span

    def test_input_guards(self):
        catalog = generate_catalog(5, 3, seed=1)
        config = BehaviorConfig(base_rate=0.4)
        with pytest.raises(MirankError, match="exceeds"):
            generate_logs(config, catalog, n_queries=2, items_per_query=6)
        with pytest.raises(MirankError, match="n_queries"):
            generate_logs(config, catalog, n_queries=-1, items_per_query=3)
        for size in (0, -1):
            with pytest.raises(MirankError, match="items_per_query"):
                generate_logs(config, catalog, n_queries=2, items_per_query=size)
        for fraction in (-0.1, 1.5, float("nan")):
            with pytest.raises(MirankError, match="train_fraction"):
                generate_logs(config, catalog, n_queries=2, items_per_query=3, train_fraction=fraction)

    def test_hopeless_purchase_filter_raises(self):
        catalog = generate_catalog(10, 3, seed=1)
        config = BehaviorConfig(base_rate=1e-6, seed=1)
        with pytest.raises(MirankError, match="acceptance rate"):
            generate_logs(config, catalog, n_queries=2, items_per_query=3, seed=5)

    def test_no_train_split_has_no_acceptance_rate(self):
        catalog = generate_catalog(20, 3, seed=1)
        data = generate_logs(BehaviorConfig(seed=2), catalog, n_queries=5, items_per_query=4, train_fraction=0.0)
        assert data.acceptance_rate is None
        assert len(data.train_records) == 0 and len(data.test_records) == 5
