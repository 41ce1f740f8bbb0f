"""Global feature extension.

Each item's local feature vector is compared against the element-wise
minimum and maximum over the candidate set, producing a [0, 1] relative
position per dimension. Local and global vectors are concatenated into a
2d-dimensional input consumed by all mutual-influence models.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import CandidateSet, QueryRecord

__all__ = ["extend_features", "extend_feature_matrix", "record_rows"]

# A dimension where every item shares the same value carries no relative
# information; the formula divides by zero there. 0.5 is the neutral midpoint.
DEGENERATE_FILL = 0.5


def extend_feature_matrix(local: np.ndarray) -> np.ndarray:
    """Extend a (..., N, d) local feature matrix to the (..., N, 2d) global
    extension; leading axes index independent candidate sets.

    Columns d..2d-1 hold, per set and dimension, (x - min) / (max - min) over
    its N rows; degenerate dimensions (max == min) are filled with 0.5.
    """
    local = np.asarray(local, dtype=np.float64)
    lo = local.min(axis=-2, keepdims=True)
    span = local.max(axis=-2, keepdims=True) - lo
    degenerate = span == 0.0
    rel = (local - lo) / np.where(degenerate, 1.0, span)
    np.copyto(rel, DEGENERATE_FILL, where=degenerate)
    return np.concatenate([local, rel], axis=-1)


def extend_features(candidates: CandidateSet) -> np.ndarray:
    """Extended features for every item of a validated set, in set order.

    Returns an (N, 2d) matrix; row i is the concatenation of item i's local
    features and its per-dimension min-max position within the set. Runs in
    time proportional to N * d and depends only on the set, not on any order.
    """
    return extend_feature_matrix(candidates.feature_matrix)


def record_rows(records: Sequence[QueryRecord], extended: bool) -> np.ndarray:
    """The (n, F) rows of every item of the non-empty ``records`` of one d, in
    log order: local features, or each record's own extension if ``extended``,
    filled record by record into one preallocated array."""
    d = records[0].candidate_set.feature_matrix.shape[1]
    rows = np.empty((sum(len(record) for record in records), 2 * d if extended else d))
    start = 0
    for record in records:
        local = record.candidate_set.feature_matrix
        rows[start : start + len(local)] = extend_feature_matrix(local) if extended else local
        start += len(local)
    return rows
