"""Numerical kernels: hand-computed oracles, gradient checks, training loop."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mirank
from mirank import BehaviorConfig, CandidateSet, ModelConfig, QueryRecord, TrainConfig, generate_catalog, generate_logs
from mirank.configs import VARIANTS
from mirank.core import MirankError, ValidationError, make_rng
from mirank.nn.common import PROB_EPS, _load_expit, cross_entropy_batch, glorot_uniform, sigmoid
from gradcheck import gradient_check, relative_error
from mirank.nn.mlp import mlp_forward_batch
from mirank.nn.recurrent import lstm_step_batch, sequence_forward
from mirank.nn.train import BETA1, BETA2, EPS, AdamState, TrainingDiverged, adam_step, init_blocks, train


def _sig(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


class TestActivationsAndLoss:
    def test_sigmoid_values(self):
        assert sigmoid(0.0) == 0.5
        assert abs(sigmoid(2.0) - _sig(2.0)) < 1e-15

    @pytest.mark.parametrize("first, second", (
        ("mirank.cli", "scipy.special"),
        ("scipy.special", "mirank.cli"),
        ("mirank.cli", "scipy"),
    ))
    def test_sigmoid_is_scipy_expit_in_either_import_order(self, first, second):
        """sigmoid is loaded from scipy's extension file, without executing
        scipy or scipy.special, yet it is the very ufunc scipy.special
        exports, also when a plain scipy import loads scipy.special later."""
        env = {**os.environ, "PYTHONPATH": str(Path(mirank.__file__).parents[1])}
        code = f"import {first}, {second}, mirank.nn.common as common; print(common.sigmoid is scipy.special.expit)"
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "True"

    def test_a_missing_scipy_is_a_module_not_found_error_for_scipy(self, tmp_path):
        """With every installed package but scipy on the path, importing
        mirank fails as an import of scipy does."""
        site = Path(np.__file__).parents[1]
        for entry in site.iterdir():
            if not entry.name.startswith("scipy"):
                (tmp_path / entry.name).symlink_to(entry)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(mirank.__file__).parents[1]), str(tmp_path)])}
        code = "import mirank"
        result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1] == "ModuleNotFoundError: No module named 'scipy'"

    def test_sigmoid_falls_back_to_scipy_special_without_the_extension(self, tmp_path, monkeypatch):
        """A scipy whose special/ directory has no _special_ufuncs file."""
        import scipy.special

        monkeypatch.delitem(sys.modules, "scipy.special._special_ufuncs", raising=False)
        assert _load_expit(tmp_path) is scipy.special.expit

    def test_cross_entropy_half_is_ln2(self):
        assert abs(cross_entropy_batch([0.5], [1]) - math.log(2.0)) < 1e-12
        assert abs(cross_entropy_batch([0.5], [0]) - math.log(2.0)) < 1e-12

    def test_cross_entropy_clamps_extremes(self):
        assert math.isfinite(cross_entropy_batch([0.0], [1]))
        assert math.isfinite(cross_entropy_batch([1.0], [0]))
        assert abs(cross_entropy_batch([0.0], [1]) + math.log(PROB_EPS)) < 1e-9

    def test_batch_matches_sum_of_singles(self, rng):
        preds = rng.uniform(0.01, 0.99, size=10)
        labels = rng.integers(0, 2, size=10)
        total = sum(cross_entropy_batch([p], [y]) for p, y in zip(preds, labels))
        assert abs(cross_entropy_batch(preds, labels) - total) < 1e-12


def test_glorot_bounds():
    w = glorot_uniform(make_rng(0), (30, 20))
    limit = math.sqrt(6.0 / 50.0)
    assert np.all(np.abs(w) <= limit)
    assert w.std() > 0


# SHA-256 over each fresh block's name and little-endian float64 bytes, in
# table order, from init_blocks(variant, config, make_rng(11)).
INIT_DIGESTS = {
    ("default", "baseline"): "9c6ff535495cf7cbabbde75acfd059d911cdd96908d92b862cc0e4c0ea0d3eff",
    ("default", "midnn"): "5179634df4c2c59c6291ff89e2cb6f58ec53e1923d9d75e0296c1b4ef4326415",
    ("default", "mirnn"): "a12f5ab4b85a45d885d1d69db9c3ca8706a556f115e0a8462920d775bc739779",
    ("default", "mirnn_attention"): "2ddcc59497af34eb237e0eff4ede5f9384d153efb9a3d203418900c18cae851e",
    ("small", "baseline"): "0d997a1e5a113cf5f11f3af7a387f3709833040a2d14056b9833dd03eeba7378",
    ("small", "midnn"): "cd4b371f5de99632e512d1d313b6fbc1996a82fea86aef00467a7eb437873333",
    ("small", "mirnn"): "0af9b884da2f6e925931045f990fc9ff4f8e00a0b5e6765acdab8b367b2f58c6",
    ("small", "mirnn_attention"): "183138142a19e0bdec8f5463c5728dcba764d5ee844e0dd49e78213ef25fd699",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_fresh_blocks_are_pinned(variant):
    """The draw order and every init rule are part of each variant's numbers."""
    configs = {
        "default": ModelConfig(),
        "small": ModelConfig(d=3, hidden_sizes=(4, 2), lstm_hidden=3, attn_size=2, pos_size=2, max_positions=6),
    }
    for name, config in configs.items():
        digest = hashlib.sha256()
        for block_name, block in init_blocks(variant, config, make_rng(11)).items():
            digest.update(block_name.encode())
            digest.update(np.ascontiguousarray(block, dtype="<f8").tobytes())
        assert digest.hexdigest() == INIT_DIGESTS[name, variant], name


class TestMlp:
    def _tiny_params(self):
        return {
            "W1": np.array([[1.0, 0.0], [0.0, 1.0]]),
            "b1": np.array([0.5, -0.5]),
            "W_out": np.array([[2.0, -1.0]]),
            "b_out": np.array([0.25]),
        }

    def test_forward_hand_computed(self):
        # h = relu([2 + 0.5, -3 - 0.5]) = [2.5, 0]; logit = 2 * 2.5 + 0.25
        probs, _ = mlp_forward_batch(self._tiny_params(), np.array([[2.0, -3.0]]))
        assert abs(probs[0] - _sig(5.25)) < 1e-12

    def test_batch_matches_single(self, rng):
        params = init_blocks("midnn", ModelConfig(d=3, hidden_sizes=(4, 3)), rng)
        x = rng.standard_normal((6, 6))
        probs, _ = mlp_forward_batch(params, x)
        for row, expected in zip(x, probs):
            assert abs(mlp_forward_batch(params, row[None, :])[0][0] - expected) < 1e-12


class TestLstm:
    def _tiny_params(self):
        return {
            "Wx": np.array([[0.5], [-0.3], [0.8], [1.2]]),
            "Wh": np.array([[0.1], [0.2], [-0.1], [0.4]]),
            "b": np.array([0.05, 1.0, -0.2, 0.3]),
            "w_out": np.array([0.7]),
        }

    def test_step_hand_computed(self):
        x, h0, c0 = 0.7, 0.2, -0.4
        i = _sig(0.5 * x + 0.1 * h0 + 0.05)
        f = _sig(-0.3 * x + 0.2 * h0 + 1.0)
        o = _sig(0.8 * x - 0.1 * h0 - 0.2)
        g = math.tanh(1.2 * x + 0.4 * h0 + 0.3)
        c1 = f * c0 + i * g
        h1 = o * math.tanh(c1)
        h_new, c_new, _ = lstm_step_batch(self._tiny_params(), np.array([[h0]]), np.array([[c0]]), np.array([[x]]))
        assert abs(h_new[0, 0] - h1) < 1e-12
        assert abs(c_new[0, 0] - c1) < 1e-12

    def test_batch_broadcasts_shared_state(self, rng):
        params = self._tiny_params()
        xs = rng.standard_normal((4, 1))
        h0, c0 = np.full((4, 1), 0.3), np.full((4, 1), -0.1)
        h_batch, c_batch, _ = lstm_step_batch(params, h0, c0, xs)
        for row in range(4):
            h_one, c_one, _ = lstm_step_batch(params, h0[row : row + 1], c0[row : row + 1], xs[row : row + 1])
            assert np.allclose(h_batch[row], h_one[0], atol=1e-14)
            assert np.allclose(c_batch[row], c_one[0], atol=1e-14)


class TestAdam:
    def test_two_steps_hand_computed(self):
        blocks = {"w": np.array([1.0])}
        state = AdamState()
        lr, b1, b2, eps = 0.1, BETA1, BETA2, EPS

        w, m, v = 1.0, 0.0, 0.0
        for grad in (0.5, -0.25):
            adam_step(blocks, {"w": np.array([grad])}, state, lr)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad**2
            m_hat = m / (1 - b1**state.t)
            v_hat = v / (1 - b2**state.t)
            w -= lr * m_hat / (math.sqrt(v_hat) + eps)
            assert abs(blocks["w"][0] - w) < 1e-12


class TestGradientCheck:
    def test_midnn_gradients(self, rng):
        config = ModelConfig(d=2, hidden_sizes=(3, 2))
        x = rng.standard_normal((5, 4))
        labels = rng.integers(0, 2, size=5)
        report = gradient_check("midnn", config, x, labels, seed=0)
        assert report.passes(1e-4), report.block_errors

    def test_mirnn_gradients(self, rng):
        config = ModelConfig(d=2, lstm_hidden=4)
        x = rng.standard_normal((2, 5, 4))
        labels = rng.integers(0, 2, size=(2, 5))
        report = gradient_check("mirnn", config, x, labels, seed=1)
        assert report.passes(1e-4), report.block_errors

    def test_attention_gradients(self, rng):
        config = ModelConfig(d=2, lstm_hidden=3, attn_size=3, pos_size=2, max_positions=6)
        x = rng.standard_normal((2, 4, 4))
        labels = rng.integers(0, 2, size=(2, 4))
        report = gradient_check("mirnn_attention", config, x, labels, seed=2)
        assert report.passes(1e-4), report.block_errors

    def test_relative_error_symmetry(self):
        assert relative_error(1.0, 1.0) == 0.0
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(2.0, 1.0) == 0.5


class TestSequenceForward:
    def test_zero_score_weights_give_uniform_attention(self, rng):
        config = ModelConfig(d=2, lstm_hidden=4, attn_size=3, pos_size=2, max_positions=8)
        blocks = init_blocks("mirnn_attention", config, rng)
        blocks["w_g"][:] = 0.0
        _, caches = sequence_forward(blocks, rng.standard_normal((2, 5, 4)))
        for t in range(1, 5):
            assert np.allclose(caches["alphas"][t], 1.0 / t)

    def test_attention_rows_sum_to_one(self, rng):
        config = ModelConfig(d=2, lstm_hidden=4, attn_size=3, pos_size=2, max_positions=8)
        blocks = init_blocks("mirnn_attention", config, rng)
        _, caches = sequence_forward(blocks, rng.standard_normal((3, 6, 4)))
        for t in range(1, 6):
            assert np.allclose(caches["alphas"][t].sum(axis=1), 1.0)

    @pytest.mark.parametrize("variant", ("mirnn", "mirnn_attention"))
    def test_scoring_without_caches_is_exact(self, variant, rng):
        """Dropping the training caches changes no bit of the probabilities
        or the attention weights, and keeps nothing but the weights."""
        config = ModelConfig(d=2, lstm_hidden=5, attn_size=3, pos_size=2, max_positions=6)
        blocks = init_blocks(variant, config, rng)
        x = rng.standard_normal((7, 9, 4))
        probs, caches = sequence_forward(blocks, x, keep_caches=True)
        lean_probs, lean = sequence_forward(blocks, x)
        assert set(lean) == {"alphas"}
        assert np.array_equal(lean_probs, probs)
        assert len(lean["alphas"]) == len(caches["alphas"]) == (9 if variant == "mirnn_attention" else 0)
        for got, want in zip(lean["alphas"][1:], caches["alphas"][1:]):
            assert np.array_equal(got, want)

    def test_positions_beyond_embedding_table_clamp(self, rng):
        config = ModelConfig(d=2, lstm_hidden=3, attn_size=3, pos_size=2, max_positions=3)
        blocks = init_blocks("mirnn_attention", config, rng)
        probs, _ = sequence_forward(blocks, rng.standard_normal((1, 7, 4)))
        assert np.all(np.isfinite(probs))


def _tiny_records(n_records, length, d, seed):
    rng = make_rng(seed)
    records = []
    for q in range(n_records):
        prices, features = [], []
        for _ in range(length):
            prices.append(rng.uniform(1, 10))
            features.append(rng.standard_normal(d))
        labels = rng.integers(0, 2, size=length)
        if not labels.any():
            labels[0] = 1
        records.append(QueryRecord(f"q{q}", CandidateSet(np.arange(length), prices, features), labels))
    return records


class TestTrain:
    def test_loss_decreases_and_is_deterministic(self):
        records = _tiny_records(30, 6, 3, seed=5)
        config = ModelConfig(d=3, hidden_sizes=(8, 4))
        params_a, curve_a = train("midnn", records, config, TrainConfig(epochs=4), seed=9)
        params_b, curve_b = train("midnn", records, config, TrainConfig(epochs=4), seed=9)
        assert curve_a[-1] < curve_a[0]
        assert curve_a == curve_b
        for name in params_a.blocks:
            assert np.array_equal(params_a.blocks[name], params_b.blocks[name])

    def test_recurrent_variants_train(self):
        records = _tiny_records(20, 5, 3, seed=6)
        config = ModelConfig(d=3, lstm_hidden=6, attn_size=4, pos_size=2, max_positions=8)
        for variant in ("mirnn", "mirnn_attention"):
            params, curve = train(variant, records, config, TrainConfig(epochs=3), seed=4)
            assert params.variant == variant
            assert curve[-1] < curve[0]

    @pytest.mark.parametrize("variant", ("midnn", "mirnn"))
    def test_a_generator_of_records_trains_as_its_list(self, variant):
        """The d check once used up a generator: midnn then ended in a raw
        ValueError, mirnn in a ZeroDivisionError."""
        records = _tiny_records(6, 4, 3, seed=3)
        config, train_config = ModelConfig(d=3, hidden_sizes=(4,), lstm_hidden=3), TrainConfig(epochs=2)
        params, curve = train(variant, (record for record in records), config, train_config, seed=1)
        listed, listed_curve = train(variant, records, config, train_config, seed=1)
        assert curve == listed_curve
        for name in params.blocks:
            assert np.array_equal(params.blocks[name], listed.blocks[name])

    def test_empty_dataset_rejected(self):
        with pytest.raises(MirankError):
            train("midnn", [], ModelConfig(d=3), TrainConfig(), seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_input_raises_diverged(self):
        # Non-finite features cannot reach training: construction rejects them.
        with pytest.raises(ValidationError, match="non-finite"):
            CandidateSet([0, 1], [1.0, 1.0], [[np.inf, -np.inf], [0.0, 1.0]])
        # A huge step size still drives finite inputs to a non-finite loss.
        record = QueryRecord("q0", CandidateSet([0, 1], [1.0, 1.0], [[1.0, -1.0], [0.0, 1.0]]), (1, 0))
        config = TrainConfig(learning_rate=1e308, epochs=3)
        with pytest.raises(TrainingDiverged, match="non-finite loss"):
            train("midnn", [record], ModelConfig(d=2, hidden_sizes=(3,)), config, seed=0)

    @pytest.mark.parametrize("variant", ("mirnn", "midnn"))
    def test_feature_dimension_must_match_the_model(self, variant):
        """A log of mixed d, or a model d that no record has, once ended in a
        raw ValueError from np.stack, np.vstack or a matmul."""
        good = _tiny_records(3, 4, 3, seed=1)
        odd = _tiny_records(1, 4, 4, seed=2)[0]
        mixed = good[:2] + [QueryRecord("odd", odd.candidate_set, odd.labels)] + good[2:]
        small = dict(hidden_sizes=(4,), lstm_hidden=3)
        with pytest.raises(ValidationError, match="record odd has d=4 features, the model takes d=3"):
            train(variant, mixed, ModelConfig(d=3, **small), TrainConfig(epochs=1), seed=0)
        with pytest.raises(ValidationError, match="record q0 has d=3 features, the model takes d=10"):
            train(variant, good, ModelConfig(d=10, **small), TrainConfig(epochs=1), seed=0)


class TestTrainingMemory:
    """Training holds the records plus one batch: a recurrent batch extends
    only its own records, and feed-forward items are extended into one
    preallocated row array. Peaks are tracemalloc's, over one epoch at the
    default model size (d=23, so 46 extended features)."""

    @staticmethod
    def _peak(variant, records):
        tracemalloc.start()
        try:
            train(variant, records, ModelConfig(), TrainConfig(epochs=1), seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_recurrent_peak_does_not_follow_the_log(self):
        """An extended copy of every record made the peak over 400 records
        1.79x that over 40."""
        records = _tiny_records(400, 20, 23, seed=1)
        ratio = self._peak("mirnn_attention", records) / self._peak("mirnn_attention", records[:40])
        assert ratio < 1.3, ratio

    def test_feed_forward_peak_is_about_one_row_array(self):
        """Per-record extended rows joined by np.vstack made the peak 2.06x
        the (n_items, 2d) float64 row array."""
        records = _tiny_records(400, 20, 23, seed=1)
        rows = 400 * 20 * 2 * 23 * np.dtype(np.float64).itemsize
        ratio = self._peak("midnn", records) / rows
        assert ratio < 1.5, ratio


# SHA-256 over each variant's loss curve (little-endian float64), then each
# trained block's name and bytes in sorted name order, in test_trained_blocks_are_pinned.
TRAINED_DIGESTS = {
    "baseline": "99d446f4ec02b9c9c922dca8b8620cb69f4472218bfdf2539ffe7849b04c05d9",
    "midnn": "84a2a1f73d9c5e0a909c9472051fb0bbdda97ef1df7810e8231ffc3ed3303e38",
    "mirnn": "e89d6f3c089bb08ffb5afef9a83f9937c6ef6720216b8d818642fcb280650db6",
    "mirnn_attention": "69215950e9612417ab59ec478317d309725aafca0a3119c513068d2e61a9a5f5",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_trained_blocks_are_pinned(variant):
    """Two epochs on a fixed simgen log pin every bit of training: the feature
    extension, the forward and backward kernels and the Adam step. 13 records
    of 6 items and 7 of 4 leave a partial last batch in both length groups
    (batches of 4) and in the item batches (106 items, batches of 32)."""
    catalog = generate_catalog(40, 3, seed=4)
    behavior = BehaviorConfig(base_rate=0.3, price_sensitivity=1.0)
    records = (
        generate_logs(behavior, catalog, n_queries=13, items_per_query=6, seed=5).records
        + generate_logs(behavior, catalog, n_queries=7, items_per_query=4, seed=6).records
    )
    config = ModelConfig(d=3, hidden_sizes=(8, 4), lstm_hidden=6, attn_size=4, pos_size=2, max_positions=8)
    params, curve = train(variant, records, config, TrainConfig(epochs=2, batch_size=32, sequence_batch_size=4), seed=7)
    digest = hashlib.sha256(np.asarray(curve, dtype="<f8").tobytes())
    for name in sorted(params.blocks):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params.blocks[name], dtype="<f8").tobytes())
    assert digest.hexdigest() == TRAINED_DIGESTS[variant]
