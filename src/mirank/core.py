"""Shared domain types: candidate sets, rankings, and query records.

All types are immutable after construction and safe to share across
concurrent tasks. Positions are 1-based in docstrings (matching common
ranking terminology) and 0-based in code; the conversion happens at the
public function boundaries.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CandidateSet",
    "Ranking",
    "QueryRecord",
    "MirankError",
    "ValidationError",
    "NonFiniteError",
    "make_rng",
    "naming",
]


class MirankError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MirankError):
    """A domain invariant was violated by user-supplied data."""


class NonFiniteError(MirankError):
    """A model gave NaN or infinity where a result must be a finite number."""


@contextlib.contextmanager
def naming(context: str):
    """Re-raise a NonFiniteError from the block as ``"{context}: {message}"``,
    so the error names the model and input it came from."""
    try:
        yield
    except NonFiniteError as exc:
        raise NonFiniteError(f"{context}: {exc}") from None


def _whole(value) -> bool:
    """Whether the scalar ``value`` is an integer (a bool is one) or a float with no fractional part."""
    return isinstance(value, (int, np.integer)) or isinstance(value, (float, np.floating)) and value.is_integer()


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for a whole 64-bit seed, not a bool; no global RNG state is used."""
    if isinstance(seed, bool) or not _whole(seed) or not 0 <= int(seed) < 2**64:
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(int(seed)))


def _frozen(values, what: str) -> np.ndarray:
    """A read-only float64 copy of ``values``, so no caller keeps a writable
    view of a set's data. The values must all be numbers within the float64
    range: a string, a null, any other non-number or an int too large for a
    float raises instead of being cast."""
    array = np.array(values)
    if array.dtype.kind not in "biuf":
        # Only a failing check walks the values, to name the first offender;
        # Python ints beyond int64 are numbers, cast below if a float holds them.
        for value in np.array(values, dtype=object).ravel():
            if not isinstance(value, (int, float, np.number)):
                raise ValidationError(f"{what} must be numbers, got {value!r}")
            if isinstance(value, int):
                try:
                    float(value)
                except OverflowError:
                    from decimal import Decimal  # formats an int of any size, as repr does not

                    raise ValidationError(
                        f"{what} must be numbers within the float64 range, got {Decimal(value):.3e}"
                    ) from None
        array = np.array(values, dtype=np.float64)
    array = array.astype(np.float64, copy=False)
    array.setflags(write=False)
    return array


def _frozen_integers(values, what: str) -> np.ndarray:
    """A read-only int64 copy of ``values``, which must all be whole numbers:
    a fraction, a string or any other non-number raises instead of being cast."""
    array = np.array(values)
    kind = array.dtype.kind
    if kind in "biu" or kind == "f" and ((np.abs(array) < 2.0**63) & (np.trunc(array) == array)).all():
        array = array.astype(np.int64, copy=False)
        array.setflags(write=False)
        return array
    # Only a failing check walks the values, to name the first offender.
    for value in np.array(values, dtype=object).ravel():
        if not _whole(value):
            raise ValidationError(f"{what} must be integers, got {value!r}")
    raise ValidationError(f"{what} must be integers within the int64 range")


def _rows_at(array: np.ndarray, order: np.ndarray) -> np.ndarray:
    """A read-only copy of the rows of ``array`` at positions ``order``."""
    taken = array.take(order, axis=0)
    taken.setflags(write=False)
    return taken


def _first_duplicate(values: list):
    """The first of ``values`` equal to an earlier one, or None if all differ."""
    if len(set(values)) == len(values):  # builtin set beats its numpy forms on short lists
        return None
    return next(value for k, value in enumerate(values) if value in values[:k])


def _positions(order, ids: np.ndarray) -> np.ndarray:
    """``order`` as a vector of int64 positions into the items ``ids``. It
    must be a non-empty vector of distinct whole positions in 0..n-1: any
    other order raises instead of being cast or wrapped around."""
    order = _frozen_integers(order, "positions")
    if order.ndim != 1:
        raise ValidationError(f"positions must be a vector, got shape {order.shape}")
    listed = order.tolist()  # builtin min and max beat their numpy forms on short orders
    if not listed:
        raise ValidationError("candidate set must contain at least one item")
    n = len(ids)
    if min(listed) < 0 or max(listed) >= n:
        raise ValidationError(f"position {next(i for i in listed if not 0 <= i < n)} is outside 0..{n - 1}")
    duplicate = _first_duplicate(listed)
    if duplicate is not None:
        raise ValidationError(f"duplicate item id {ids[duplicate]} in candidate set")
    return order


class CandidateSet:
    """The ordered items to be ranked for one query, held as three read-only
    arrays: ``ids`` (N,), ``prices`` (N,) and ``feature_matrix`` (N, d).

    Construction checks every invariant once, over whole arrays; only a
    failing check searches for the first offending item. ``feature_matrix``
    may also be given as N per-item vectors.

    Raises:
        ValidationError: on an empty set, ids that are not whole numbers,
            negative or duplicate ids, prices that are not positive and
            finite, features that are not vectors of one dimension, or
            non-finite feature values; the message names the first offending
            item id or value.
    """

    __slots__ = ("_ids", "_prices", "_features")

    def __init__(self, ids, prices, feature_matrix):
        ids, prices = _frozen_integers(ids, "item ids"), _frozen(prices, "prices")
        if not ids.size:
            raise ValidationError("candidate set must contain at least one item")
        if ids.ndim != 1 or prices.shape != ids.shape:
            raise ValidationError(f"ids must be a vector with one price each, got shapes {ids.shape}, {prices.shape}")
        listed = ids.tolist()  # builtin min and set beat their numpy forms on short sets
        if min(listed) < 0:
            raise ValidationError(f"item {next(i for i in listed if i < 0)}: id must be non-negative")
        duplicate = _first_duplicate(listed)
        if duplicate is not None:
            raise ValidationError(f"duplicate item id {duplicate} in candidate set")
        valid = np.isfinite(prices) & (prices > 0)
        if not valid.all():
            i = np.argmin(valid)
            raise ValidationError(f"item {ids[i]}: price must be positive and finite, got {prices[i]}")
        try:
            features = _frozen(feature_matrix, "local features")
        except ValueError:  # ragged rows name the first item that is nested or off the first row's shape
            shapes = []
            for item_id, row in zip(listed, feature_matrix):
                try:
                    shapes.append(np.shape(row))
                except ValueError:
                    raise ValidationError(f"item {item_id}: local features must be a flat vector of numbers") from None
                if shapes[-1] != shapes[0]:
                    raise ValidationError(
                        f"item {item_id}: feature dimension {shapes[-1]} differs from the set's dimension {shapes[0]}"
                    ) from None
            raise
        if features.ndim != 2:
            raise ValidationError(f"item {ids[0]}: local features must be a vector, got shape {features.shape[1:]}")
        if len(features) != len(ids):
            raise ValidationError(f"{len(ids)} items but {len(features)} feature rows")
        finite = np.isfinite(features)
        if not finite.all():
            i = np.argmin(finite.all(axis=1))
            raise ValidationError(f"item {ids[i]}: local features contain non-finite values")
        self._ids, self._prices, self._features = ids, prices, features

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def prices(self) -> np.ndarray:
        return self._prices

    @property
    def feature_matrix(self) -> np.ndarray:
        """Local features, one row per item, shape (N, d)."""
        return self._features

    def take(self, order) -> CandidateSet:
        """The items at positions ``order`` of this set, in that order.

        Only ``order`` is checked: it must be a non-empty vector of distinct
        whole positions in range. The rows it picks were checked when this
        set was built, so the taken set is made from them as they are.
        """
        return self._take(order)[1]

    def _take(self, order) -> tuple[np.ndarray, CandidateSet]:
        """The checked ``order`` as an int64 vector, and :meth:`take` of it."""
        order = _positions(order, self._ids)
        taken = CandidateSet.__new__(CandidateSet)
        taken._ids, taken._prices = _rows_at(self._ids, order), _rows_at(self._prices, order)
        taken._features = _rows_at(self._features, order)
        return order, taken


@dataclass(frozen=True)
class Ranking:
    """A permutation of candidate-set indices (0-based positions into the set);
    positions that are not whole numbers raise instead of being truncated."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(_frozen_integers(self.order, "ranking positions").tolist())
        if sorted(order) != list(range(len(order))):
            raise ValidationError(f"order {order} is not a permutation of 0..{len(order) - 1}")
        object.__setattr__(self, "order", order)

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True, eq=False)
class QueryRecord:
    """One logged impression: the displayed items in display order plus
    purchase labels.

    Attributes:
        query_id: Identifier of the query.
        candidate_set: The items in the order shown to the user.
        labels: Read-only binary purchase labels, parallel to the set.
        ground_truth_probs: Optional read-only simulator purchase
            probabilities in [0, 1], parallel to the set; present for
            synthetic data only.
    """

    query_id: str
    candidate_set: CandidateSet
    labels: np.ndarray
    ground_truth_probs: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.candidate_set)
        labels = _frozen_integers(self.labels, f"record {self.query_id}: labels")
        if labels.shape != (n,):
            raise ValidationError(f"record {self.query_id}: {labels.size} labels for {n} items")
        if labels.min() < 0 or labels.max() > 1:
            raise ValidationError(f"record {self.query_id}: labels must be 0 or 1")
        object.__setattr__(self, "labels", labels)
        if self.ground_truth_probs is not None:
            probs = _frozen(self.ground_truth_probs, f"record {self.query_id}: ground-truth probabilities")
            if probs.shape != (n,):
                raise ValidationError(
                    f"record {self.query_id}: {probs.size} ground-truth probabilities for {n} items"
                )
            valid = (probs >= 0.0) & (probs <= 1.0)
            if not valid.all():
                i = np.argmin(valid)
                raise ValidationError(
                    f"record {self.query_id}: item {self.candidate_set.ids[i]}: "
                    f"ground-truth probability must be in [0, 1], got {probs[i]}"
                )
            object.__setattr__(self, "ground_truth_probs", probs)

    def __len__(self) -> int:
        return len(self.candidate_set)

    def take(self, order) -> QueryRecord:
        """The record with its items, labels and probabilities at positions
        ``order``, in that order; only ``order`` is checked."""
        order, candidates = self.candidate_set._take(order)
        probs = self.ground_truth_probs
        taken = QueryRecord.__new__(QueryRecord)
        vars(taken).update(query_id=self.query_id, candidate_set=candidates, labels=_rows_at(self.labels, order),
                           ground_truth_probs=None if probs is None else _rows_at(probs, order))
        return taken
