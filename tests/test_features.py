"""Global feature extension: worked examples plus property tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mirank.features import DEGENERATE_FILL, extend_feature_matrix, extend_features
from conftest import random_candidates
from mirank.core import make_rng


def test_worked_example():
    local = np.array([[1.0, 10.0], [3.0, 10.0], [2.0, 10.0]])
    extended = extend_feature_matrix(local)
    assert extended.shape == (3, 4)
    assert np.array_equal(extended[:, :2], local)
    assert np.allclose(extended[:, 2], [0.0, 1.0, 0.5])
    # the second dimension is constant across the set, hence neutral
    assert np.all(extended[:, 3] == DEGENERATE_FILL)


def test_single_item_set_is_all_neutral():
    extended = extend_feature_matrix(np.array([[4.0, -1.0]]))
    assert np.all(extended[:, 2:] == DEGENERATE_FILL)


def test_extend_features_matches_matrix_form(rng):
    cs = random_candidates(rng, 5, 3)
    assert np.array_equal(extend_features(cs), extend_feature_matrix(cs.feature_matrix))


matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 6)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_bounds_property(local):
    d = local.shape[1]
    rel = extend_feature_matrix(local)[:, d:]
    assert np.all(rel >= 0.0) and np.all(rel <= 1.0)


@given(matrices, st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_permutation_invariance_property(local, seed):
    perm = make_rng(seed).permutation(local.shape[0])
    assert np.array_equal(extend_feature_matrix(local)[perm], extend_feature_matrix(local[perm]))


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_monotonicity_property(local):
    """Within every column, a larger local value never gets a smaller relative position."""
    d = local.shape[1]
    rel = extend_feature_matrix(local)[:, d:]
    for j in range(d):
        order = np.argsort(local[:, j], kind="stable")
        assert np.all(np.diff(rel[order, j]) >= 0.0)


integer_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 6)),
    elements=st.integers(-1000, 1000).map(float),
)


@given(integer_matrices, st.floats(0.1, 100.0), st.floats(-1e3, 1e3))
@settings(max_examples=200, deadline=None)
def test_affine_invariance_property(local, scale, shift):
    """Integer-valued inputs keep every non-degenerate column span >= 1, so
    the comparison is not dominated by catastrophic cancellation."""
    d = local.shape[1]
    base = extend_feature_matrix(local)[:, d:]
    transformed = extend_feature_matrix(local * scale + shift)[:, d:]
    assert np.allclose(base, transformed, atol=1e-6)


@given(st.integers(1, 10), st.integers(1, 5), st.floats(-10, 10, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_degenerate_dimension_property(n, d, value):
    local = np.full((n, d), value)
    assert np.all(extend_feature_matrix(local)[:, d:] == DEGENERATE_FILL)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 5), st.integers(1, 8), st.integers(1, 4)),
        elements=st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.0, 1e6]) | st.floats(-1e6, 1e6, allow_nan=False),
    )
)
@settings(max_examples=200, deadline=None)
def test_stacked_sets_extend_like_each_set_alone(stack):
    """An (R, N, d) stack extends as R separate calls would, bit for bit:
    bytes are compared, so a zero of the other sign is a mismatch. Values are
    drawn from a small pool as well, so sets with constant (degenerate)
    columns, and mixed signs of zero, occur often."""
    stack[0, :, 0] = stack[0, 0, 0]  # at least one degenerate column
    stacked = extend_feature_matrix(stack)
    assert stacked.shape == stack.shape[:2] + (2 * stack.shape[2],)
    for local, extended in zip(stack, stacked):
        assert extended.tobytes() == extend_feature_matrix(local).tobytes()
    assert stacked[0, 0, stack.shape[2]] == DEGENERATE_FILL
