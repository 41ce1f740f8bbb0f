"""Synthetic behavior model: effect directions, invariances, log generation."""

import numpy as np
import pytest

from mirank import BehaviorConfig, Dataset, generate_catalog, generate_logs
from mirank.core import Item, MirankError, ValidationError, make_rng
from mirank.simgen import RANKING_POLICIES, session_probabilities, simulate_session


def _flat_items(prices):
    """Items with zero features so only price-driven effects are active."""
    return [Item(id=i, price=float(p), local_features=np.zeros(3)) for i, p in enumerate(prices)]


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
        cheap, target, pricey = _flat_items([1.0, 50.0, 100.0])
        after_pricey = session_probabilities(config, [pricey, target, cheap])
        after_cheap = session_probabilities(config, [cheap, target, pricey])
        assert after_pricey[1] > after_cheap[1]

    def test_primacy_expensive_leaders_lift_the_tail(self):
        config = BehaviorConfig(primacy_strength=4.0, base_rate=0.2)
        a, b, c, d = _flat_items([100.0, 90.0, 1.0, 2.0])
        rich_top = session_probabilities(config, [a, b, c, d])
        poor_top = session_probabilities(config, [c, d, a, b])
        # items have zero features, so only the leaders' prices matter
        assert np.all(rich_top[2:] > poor_top[2:])

    def test_order_invariance_without_sequential_effects(self):
        config = BehaviorConfig(price_sensitivity=2.0, base_rate=0.25, seed=3)
        rng = make_rng(0)
        items = [
            Item(id=i, price=float(rng.uniform(1, 100)), local_features=rng.standard_normal(3))
            for i in range(6)
        ]
        base = session_probabilities(config, items)
        perm = rng.permutation(6)
        shuffled = session_probabilities(config, [items[i] for i in perm])
        assert np.allclose(shuffled, base[perm])

    def test_empty_session_rejected(self):
        with pytest.raises(MirankError):
            session_probabilities(BehaviorConfig(), [])


class TestSimulateSession:
    def test_labels_binary_and_reproducible(self):
        config = BehaviorConfig(price_sensitivity=1.0, base_rate=0.4, seed=7)
        items = _flat_items([1.0, 10.0, 100.0])
        a = simulate_session(config, items, make_rng(11))
        b = simulate_session(config, items, make_rng(11))
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0, 1}

    def test_label_rate_tracks_probabilities(self):
        config = BehaviorConfig(base_rate=0.3)
        items = _flat_items([5.0] * 50)
        rng = make_rng(2)
        rate = np.mean([simulate_session(config, items, rng).mean() for _ in range(200)])
        assert abs(rate - 0.3) < 0.02


class TestGenerateCatalog:
    def test_deterministic_with_price_in_feature_zero(self):
        a = generate_catalog(20, 4, seed=9)
        b = generate_catalog(20, 4, seed=9)
        for x, y in zip(a, b):
            assert x.id == y.id and x.price == y.price
            assert np.array_equal(x.local_features, y.local_features)
        prices = np.array([item.price for item in a])
        assert np.all((prices >= 1.0) & (prices <= 100.0))
        feats0 = np.array([item.local_features[0] for item in a])
        assert np.allclose(feats0, prices / 100.0)

    def test_rejects_empty_catalog(self):
        with pytest.raises(MirankError):
            generate_catalog(0, 3, seed=0)


class TestDataset:
    def test_split_tags(self):
        catalog = generate_catalog(30, 3, seed=1)
        data = generate_logs(BehaviorConfig(base_rate=0.4), catalog, n_queries=10, items_per_query=5, seed=2)
        assert len(data.train_records) == 8
        assert len(data.test_records) == 2
        assert len(data) == 10

    def test_tag_length_mismatch_rejected(self):
        catalog = generate_catalog(5, 3, seed=1)
        data = generate_logs(BehaviorConfig(base_rate=0.4), catalog, n_queries=2, items_per_query=3, seed=2)
        with pytest.raises(ValidationError):
            Dataset(records=data.records, tags=("train",))


class TestGenerateLogs:
    def test_train_records_have_a_purchase_and_truth_is_attached(self):
        catalog = generate_catalog(40, 3, seed=3)
        data = generate_logs(BehaviorConfig(base_rate=0.25), catalog, n_queries=20, items_per_query=6, seed=4)
        for record in data.train_records:
            assert any(record.labels)
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
            assert ra.labels == rb.labels
            assert [i.id for i in ra.displayed] == [i.id for i in rb.displayed]

    def test_price_policies_order_by_price(self):
        catalog = generate_catalog(40, 3, seed=3)
        config = BehaviorConfig(base_rate=0.4)
        desc = generate_logs(config, catalog, n_queries=5, items_per_query=6, ranking_policy="price_desc", seed=8)
        for record in desc.records:
            prices = [item.price for item in record.displayed]
            assert prices == sorted(prices, reverse=True)
        asc = generate_logs(config, catalog, n_queries=5, items_per_query=6, ranking_policy="price_asc", seed=8)
        for record in asc.records:
            prices = [item.price for item in record.displayed]
            assert prices == sorted(prices)

    def test_price_band_subsets_are_narrow(self):
        catalog = generate_catalog(200, 3, seed=3)
        data = generate_logs(
            BehaviorConfig(base_rate=0.4), catalog, n_queries=30, items_per_query=10, seed=9
        )
        catalog_span = max(i.price for i in catalog) - min(i.price for i in catalog)
        spans = [
            max(i.price for i in r.displayed) - min(i.price for i in r.displayed)
            for r in data.records
        ]
        assert np.median(spans) < 0.5 * catalog_span

    def test_input_guards(self):
        catalog = generate_catalog(5, 3, seed=1)
        config = BehaviorConfig(base_rate=0.4)
        with pytest.raises(MirankError, match="exceeds"):
            generate_logs(config, catalog, n_queries=2, items_per_query=6)
        with pytest.raises(MirankError, match="policy"):
            generate_logs(config, catalog, n_queries=2, items_per_query=3, ranking_policy="nope")
        with pytest.raises(MirankError, match="sampling"):
            generate_logs(config, catalog, n_queries=2, items_per_query=3, subset_sampling="nope")

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

    def test_policy_registry_is_complete(self):
        assert set(RANKING_POLICIES) == {"random", "as_sampled", "price_desc", "price_asc"}
