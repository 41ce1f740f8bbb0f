"""Domain types: construction, immutability, and validation errors."""

import numpy as np
import pytest

from mirank import CandidateSet, QueryRecord, Ranking
from mirank.core import ValidationError, make_rng


class TestMakeRng:
    def test_deterministic(self):
        a = make_rng(7).standard_normal(5)
        b = make_rng(7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).standard_normal(5), make_rng(2).standard_normal(5))

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "7"])
    def test_rejects_out_of_range_seed(self, seed):
        """A seed out of range, or not a whole number, raises; 1.5 once seeded
        the stream of 1."""
        with pytest.raises(ValidationError):
            make_rng(seed)

    def test_accepts_boundary_seeds(self):
        make_rng(0)
        top = make_rng(2**64 - 1).standard_normal(3)
        assert np.array_equal(make_rng(np.uint64(2**64 - 1)).standard_normal(3), top)


class TestItem:
    """One item's id, price and features as a candidate set takes them."""

    def test_coerces_types(self):
        cs = CandidateSet([np.int64(3)], [np.float64(2.5)], [[1, 2]])
        assert cs.ids.dtype == np.int64 and cs.prices.dtype == np.float64
        assert cs.feature_matrix.dtype == np.float64

    @pytest.mark.parametrize("bad_id", [1.9, "2"])
    def test_rejects_non_integer_id(self, bad_id):
        with pytest.raises(ValidationError, match="must be integers"):
            CandidateSet([bad_id], [1.0], np.zeros((1, 2)))

    @pytest.mark.parametrize("price, features", [("2.5", [1.0]), (None, [1.0]), (2.5, ["1.5"]), (2.5, [None])])
    def test_rejects_non_numeric_floats(self, price, features):
        with pytest.raises(ValidationError, match="must be numbers"):
            CandidateSet([0], [price], [features])

    def test_features_are_read_only(self):
        cs = CandidateSet([0], [1.0], [np.arange(3.0)])
        with pytest.raises(ValueError):
            cs.feature_matrix[0, 0] = 9.0


class TestCandidateSet:
    def test_prices_and_feature_matrix(self, rng):
        features = [rng.standard_normal(4) for _ in range(3)]
        cs = CandidateSet(range(3), [1.0, 2.0, 3.0], features)
        assert len(cs) == 3
        assert np.array_equal(cs.ids, [0, 1, 2])
        assert np.array_equal(cs.prices, [1.0, 2.0, 3.0])
        assert cs.feature_matrix.shape == (3, 4)
        assert np.array_equal(cs.feature_matrix[1], features[1])

    def test_arrays_are_read_only_copies(self):
        features = np.zeros((2, 3))
        cs = CandidateSet([0, 1], [1.0, 2.0], features)
        features[0, 0] = 9.0
        assert cs.feature_matrix[0, 0] == 0.0
        for array in (cs.ids, cs.prices, cs.feature_matrix):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_take_keeps_columns_aligned(self, rng):
        from conftest import random_candidates

        cs = random_candidates(rng, 7, 3)
        labels = (rng.random(7) < 0.5).astype(int)
        probs = rng.random(7)
        record = QueryRecord("q", cs, labels, probs)
        order = rng.permutation(7)
        for taken in (cs.take(order), record.take(order).candidate_set):
            assert np.array_equal(taken.ids, cs.ids[order])
            assert np.array_equal(taken.prices, cs.prices[order])
            assert np.array_equal(taken.feature_matrix, cs.feature_matrix[order])
        taken = record.take(order)
        assert np.array_equal(taken.labels, labels[order])
        assert np.array_equal(taken.ground_truth_probs, probs[order])
        subset = record.take(order[:3])
        assert len(subset) == 3 and np.array_equal(subset.candidate_set.ids, cs.ids[order[:3]])

    @pytest.mark.parametrize("order", [[0, 1.9], [0.5], [-1], [0, -2], [3], [0, 7], ["1"]])
    def test_take_rejects_positions_that_are_not_whole_or_in_range(self, order):
        """A fractional position is not truncated, and a negative one does not
        wrap around to the end of the set."""
        cs = CandidateSet([4, 5, 6], [1.0, 2.0, 3.0], np.eye(3))
        record = QueryRecord("q", cs, [1, 0, 0])
        for take in (cs.take, record.take):
            with pytest.raises(ValidationError, match="position"):
                take(order)

    def test_take_accepts_whole_float_positions(self):
        cs = CandidateSet([4, 5, 6], [1.0, 2.0, 3.0], np.eye(3))
        assert cs.take([2.0, 0]).ids.tolist() == [6, 4]

    @pytest.mark.parametrize("order, message", [
        ([], "must contain at least one item"),
        ([2, 0, 2], "duplicate item id 6"),
        ([0, 1.5], "must be integers"),
        ([0, 3], "position 3 is outside 0..2"),
        ([[0, 1]], "positions must be a vector"),
    ], ids=["empty", "repeated", "fractional", "out-of-range", "not-a-vector"])
    def test_take_rejects_each_bad_order(self, order, message):
        """Both takes build their results without the constructors' checks, so
        they keep the errors those checks gave a bad order."""
        cs = CandidateSet([4, 5, 6], [1.0, 2.0, 3.0], np.eye(3))
        record = QueryRecord("q", cs, [1, 0, 0], [0.5, 0.25, 0.0])
        for take in (cs.take, record.take):
            with pytest.raises(ValidationError, match=message):
                take(order)

    def test_taken_arrays_are_read_only(self):
        cs = CandidateSet([4, 5, 6], [1.0, 2.0, 3.0], np.eye(3))
        taken = cs.take([2, 0])
        record = QueryRecord("q", cs, [1, 0, 0], [0.5, 0.25, 0.0]).take([2, 0])
        for array in (taken.ids, taken.prices, taken.feature_matrix, record.labels, record.ground_truth_probs):
            with pytest.raises(ValueError):
                array[0] = 1


class TestRanking:
    def test_valid_permutation(self):
        r = Ranking((2, 0, 1))
        assert r.order == (2, 0, 1)
        assert len(r) == 3

    @pytest.mark.parametrize("order", [(0, 0, 1), (1, 2), (0, 1, 3)])
    def test_rejects_non_permutations(self, order):
        with pytest.raises(ValidationError):
            Ranking(order)

    def test_empty_ranking_allowed(self):
        assert Ranking(()).order == ()

    @pytest.mark.parametrize("order", [(0, 1.7), (0.5, 1), ("0", "1"), (0, None)])
    def test_rejects_positions_that_are_not_whole_numbers(self, order):
        """(0, 1.7) used to read as (0, 1), and ("0", "1") was accepted."""
        with pytest.raises(ValidationError, match="ranking positions must be integers"):
            Ranking(order)

    def test_whole_float_and_numpy_positions_become_ints(self):
        r = Ranking((np.int64(1), 0.0))
        assert r.order == (1, 0) and all(type(i) is int for i in r.order)


class TestQueryRecord:
    def _items(self, n):
        return CandidateSet(np.arange(n), np.ones(n), np.zeros((n, 2)))

    def test_candidate_set_roundtrip(self):
        cs = self._items(2)
        rec = QueryRecord("q1", cs, (0, 1))
        assert len(rec) == 2
        assert rec.candidate_set is cs
        assert rec.labels.tolist() == [0, 1]

    def test_label_length_mismatch(self):
        with pytest.raises(ValidationError):
            QueryRecord("q1", self._items(2), (0,))

    def test_non_binary_labels(self):
        with pytest.raises(ValidationError):
            QueryRecord("q1", self._items(2), (0, 2))

    @pytest.mark.parametrize("labels", [(0.7, 1), ("1", 0), (float("nan"), 1)])
    def test_rejects_non_integer_labels(self, labels):
        """A fractional or textual label raises; it is not truncated to 0 or 1."""
        with pytest.raises(ValidationError, match="labels must be integers"):
            QueryRecord("q1", self._items(2), labels)

    def test_whole_float_labels_are_accepted(self):
        assert QueryRecord("q1", self._items(2), (1.0, 0.0)).labels.tolist() == [1, 0]

    def test_ground_truth_length_mismatch(self):
        with pytest.raises(ValidationError):
            QueryRecord("q1", self._items(2), (0, 1), ground_truth_probs=(0.5,))

    @pytest.mark.parametrize("prob", [float("inf"), float("nan"), -3.0, 1.5])
    def test_rejects_bad_ground_truth(self, prob):
        with pytest.raises(ValidationError, match="ground-truth probability"):
            QueryRecord("q1", self._items(2), (0, 1), ground_truth_probs=(0.5, prob))

    @pytest.mark.parametrize("prob", ["0.5", None, b"0.5"])
    def test_rejects_non_numeric_ground_truth(self, prob):
        """A string or a null is not parsed or read as NaN: it raises."""
        with pytest.raises(ValidationError, match="ground-truth probabilities must be numbers"):
            QueryRecord("q1", self._items(2), (0, 1), ground_truth_probs=(0.5, prob))


class TestValidateCandidateSet:
    """Construction checks every invariant, naming the offending item."""

    def test_accepts_valid_set(self, rng):
        from conftest import random_candidates

        cs = random_candidates(rng, 4, 3)
        rebuilt = CandidateSet(cs.ids, cs.prices, cs.feature_matrix)
        assert np.array_equal(rebuilt.feature_matrix, cs.feature_matrix) and len(rebuilt) == 4

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="at least one item"):
            CandidateSet([], [], [])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError, match="duplicate"):
            CandidateSet([0, 0], [1.0, 2.0], np.zeros((2, 2)))

    @pytest.mark.parametrize("bad_id", [1.9, "2", None, float("inf"), 2**70])
    def test_rejects_non_integer_ids(self, bad_id):
        """An id that is not a whole number in the int64 range raises; it is
        not truncated or parsed."""
        with pytest.raises(ValidationError, match="item ids must be integers"):
            CandidateSet([0, bad_id], [1.0, 1.0], np.zeros((2, 2)))

    def test_whole_float_ids_are_accepted(self):
        assert CandidateSet([0.0, 2.0], [1.0, 1.0], np.zeros((2, 2))).ids.tolist() == [0, 2]

    def test_rejects_negative_id(self):
        with pytest.raises(ValidationError, match="non-negative"):
            CandidateSet([-1], [1.0], np.zeros((1, 2)))

    @pytest.mark.parametrize("price", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_price(self, price):
        with pytest.raises(ValidationError, match="price"):
            CandidateSet([0], [price], np.zeros((1, 2)))

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValidationError, match="item 1: feature dimension .* differs"):
            CandidateSet([0, 1], [1.0, 1.0], [np.zeros(2), np.zeros(3)])

    @pytest.mark.parametrize("features, item", [
        ([[1, 2], [3, [4]]], 1),
        ([[3, [4]], [1, 2]], 0),
    ], ids=["second-row", "first-row"])
    def test_rejects_nested_feature_rows(self, features, item):
        """A row that nests a list once ended in numpy's raw ValueError."""
        with pytest.raises(ValidationError, match=f"item {item}: local features must be a flat vector"):
            CandidateSet([0, 1], [1.0, 2.0], features)

    @pytest.mark.parametrize("ids, prices, features, message", [
        ([0, 1, 2], [1.0, 2.0], np.zeros((3, 2)), "one price each"),
        ([0, 1, 2], [1.0, 2.0, 3.0], np.zeros((2, 2)), "3 items but 2 feature rows"),
    ], ids=["ids-and-prices", "ids-and-feature-rows"])
    def test_rejects_columns_of_different_lengths(self, ids, prices, features, message):
        with pytest.raises(ValidationError, match=message):
            CandidateSet(ids, prices, features)

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValidationError, match="item 1: local features contain non-finite"):
            CandidateSet([0, 1], [1.0, 1.0], [[1.0, 2.0], [1.0, np.nan]])

    def test_rejects_infinite_features(self):
        with pytest.raises(ValidationError, match="item 0: local features contain non-finite"):
            CandidateSet([0, 1], [1.0, 1.0], [[np.inf, -np.inf], [0.0, 1.0]])

    @pytest.mark.parametrize("prices, features, what", [
        (["2.5", 3.0], [[1.5, 0.0], [0.0, 1.0]], "prices"),
        ([None, 3.0], [[1.5, 0.0], [0.0, 1.0]], "prices"),
        ([2.5, 3.0], [["1.5", 0.0], [0.0, 1.0]], "local features"),
        ([2.5, 3.0], [[1.5, None], [0.0, 1.0]], "local features"),
        ([2.5, 3.0], [np.array(["1.5", "0"]), np.zeros(2)], "local features"),
    ])
    def test_rejects_non_numeric_floats(self, prices, features, what):
        """Float columns take numbers only: a string is not parsed and a null
        is not read as NaN; the message names the column and the value."""
        with pytest.raises(ValidationError, match=f"{what} must be numbers"):
            CandidateSet([0, 1], prices, features)

    def test_integer_floats_are_accepted(self):
        cs = CandidateSet([0, 1], [2, 10**20], [[1, 0], [0, 1]])
        assert cs.prices.tolist() == [2.0, 1e20] and cs.feature_matrix.dtype == np.float64

    def test_rejects_features_that_are_not_vectors(self):
        with pytest.raises(ValidationError, match="must be a vector"):
            CandidateSet([0, 1], [1.0, 1.0], np.zeros((2, 2, 2)))
