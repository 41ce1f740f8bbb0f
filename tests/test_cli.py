"""Command-line interface: pipeline round trip, config layering, exit codes."""

import contextlib
import csv
import gc
import io
import json
import math
import weakref

import pytest
import yaml

from mirank import ModelConfig, init_model
from mirank.cli import EXIT_DIVERGED, EXIT_IO, EXIT_VALIDATION, main
from mirank.persistence import load_model, read_logs, save_model, write_logs
from conftest import mixed_length_log

GEN_FLAGS = [
    "--n-queries", "12",
    "--items-per-query", "5",
    "--catalog-size", "30",
    "--d", "4",
    "--base-rate", "0.3",
    "--price-sensitivity", "1.5",
]


def _generate(out, seed=7, extra=()):
    return main(["--seed", str(seed), "--output-dir", str(out), "generate", *GEN_FLAGS, *extra])


class TestPipeline:
    def test_generate_train_rerank_evaluate(self, tmp_path):
        out = tmp_path / "run"
        assert _generate(out) == 0
        assert (out / "train.jsonl").exists() and (out / "test.jsonl").exists()
        manifest = json.loads((out / "manifest_generate.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["resolved_config"]["n_queries"] == 12

        assert main([
            "--seed", "7", "--output-dir", str(out),
            "train", "midnn", str(out / "train.jsonl"),
            "--epochs", "2", "--hidden-sizes", "8,4",
        ]) == 0
        params = load_model(out / "midnn.model")
        assert params.variant == "midnn"
        assert params.config.d == 4  # inferred from the log, not the default
        curve = (out / "midnn_loss_curve.csv").read_text().strip().splitlines()
        assert curve[0] == "epoch,mean_loss" and len(curve) == 3

        assert main([
            "--seed", "7", "--output-dir", str(out),
            "train", "mirnn_attention", str(out / "train.jsonl"),
            "--epochs", "1", "--lstm-hidden", "6",
        ]) == 0

        assert main([
            "--output-dir", str(out),
            "rerank", str(out / "midnn.model"), str(out / "test.jsonl"),
            "--rerank-size", "3",
        ]) == 0
        reranked = read_logs(out / "reranked.jsonl")
        original = read_logs(out / "test.jsonl")
        assert len(reranked) == len(original)
        for a, b in zip(original.records, reranked.records):
            assert sorted(i.id for i in a.displayed) == sorted(i.id for i in b.displayed)
            assert [i.id for i in a.displayed[3:]] == [i.id for i in b.displayed[3:]]

        assert main([
            "--output-dir", str(out),
            "evaluate", str(out / "test.jsonl"),
            str(out / "midnn.model"), str(out / "mirnn_attention.model"),
            "--attention-size", "4",
        ]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert set(report) == {"midnn", "mirnn_attention"}
        for entry in report.values():
            assert 0.0 <= entry["auc"] <= 1.0
            assert entry["n_samples"] > 0
        assert (out / "attention_matrix_mirnn_attention.csv").exists()

        assert main([
            "--output-dir", str(out),
            "oracle-compare", str(out / "mirnn_attention.model"), str(out / "test.jsonl"),
            "--max-n", "4", "--beams", "1,2",
        ]) == 0
        lines = (out / "oracle_compare.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * len(original)
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 1.0 + 1e-9

        assert main([
            "--output-dir", str(out),
            "bench", str(out / "mirnn_attention.model"),
            "--sizes", "4,8", "--beams", "1,2", "--reps", "1",
        ]) == 0
        slopes = json.loads((out / "latency_slopes.json").read_text())
        assert "mirnn_attention" in slopes["slope_vs_n"]
        assert "mirnn_attention" in slopes["slope_vs_k"]

    def test_generate_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _generate(a, seed=11) == 0
        assert _generate(b, seed=11) == 0
        assert (a / "train.jsonl").read_bytes() == (b / "train.jsonl").read_bytes()
        assert (a / "test.jsonl").read_bytes() == (b / "test.jsonl").read_bytes()

    def test_generate_without_train_split(self, tmp_path):
        out = tmp_path / "run"
        assert _generate(out, extra=["--train-fraction", "0"]) == 0
        assert len(read_logs(out / "train.jsonl")) == 0
        assert len(read_logs(out / "test.jsonl")) == 12

    def test_swapped_stdout_is_released(self, tmp_path):
        """An in-process caller that points sys.stdout at a fresh buffer per
        call must get every buffer back; retained ones grow memory per call."""
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            assert _generate(tmp_path / "run") == 0
        assert "test records" in stream.getvalue()
        released = weakref.ref(stream)
        del stream
        gc.collect()
        assert released() is None

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _generate(a, seed=1) == 0
        assert _generate(b, seed=2) == 0
        assert (a / "train.jsonl").read_bytes() != (b / "train.jsonl").read_bytes()


class TestEvaluate:
    VARIANTS = ("baseline", "midnn", "mirnn", "mirnn_attention")

    def _inputs(self, tmp_path):
        log = tmp_path / "test.jsonl"
        write_logs(mixed_length_log((9, 4, 12, 6, 9, 15, 4, 7), d=3), log)
        config = ModelConfig(d=3, hidden_sizes=(5, 4), lstm_hidden=4, attn_size=3, pos_size=2)
        paths = []
        for seed, variant in enumerate(self.VARIANTS):
            path = tmp_path / f"{variant}.model"
            save_model(init_model(variant, config, seed=seed), path)
            paths.append(str(path))
        return log, paths

    def _evaluate(self, out, log, paths):
        assert main(["--output-dir", str(out), "evaluate", str(log), *paths, "--attention-size", "6"]) == 0
        return json.loads((out / "metrics.json").read_text())

    def test_each_model_scores_as_if_alone(self, tmp_path):
        log, paths = self._inputs(tmp_path)
        together = self._evaluate(tmp_path / "all", log, paths)
        assert set(together) == set(self.VARIANTS)
        for variant, path in zip(self.VARIANTS, paths):
            alone = self._evaluate(tmp_path / variant, log, [path])
            assert alone == {variant: together[variant]}

    def test_attention_matrix_cells_are_plain_floats(self, tmp_path):
        log, paths = self._inputs(tmp_path)
        self._evaluate(tmp_path / "run", log, paths[-1:])
        with open(tmp_path / "run" / "attention_matrix_mirnn_attention.csv", newline="") as handle:
            rows = [[float(cell) for cell in row] for row in csv.reader(handle)]
        assert len(rows) == 6 and all(len(row) == 6 for row in rows)
        for row in rows[1:]:
            assert abs(math.fsum(row) - 1.0) <= 1e-9

    def test_empty_test_log_is_validation(self, tmp_path):
        log, paths = self._inputs(tmp_path)
        log.write_text("")
        assert main(["--output-dir", str(tmp_path), "evaluate", str(log), paths[1]]) == EXIT_VALIDATION


class TestConfigLayering:
    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({
            "n_queries": 10, "items_per_query": 4, "catalog_size": 25,
            "d": 3, "base_rate": 0.35,
        }))
        out = tmp_path / "run"
        assert main([
            "--seed", "3", "--config", str(config), "--output-dir", str(out),
            "generate", "--n-queries", "6",
        ]) == 0
        manifest = json.loads((out / "manifest_generate.json").read_text())
        assert manifest["resolved_config"]["n_queries"] == 6  # flag wins
        assert manifest["resolved_config"]["items_per_query"] == 4  # file wins
        assert manifest["resolved_config"]["ranking_policy"] == "random"  # default
        total = len(read_logs(out / "train.jsonl")) + len(read_logs(out / "test.jsonl"))
        assert total == 6

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({"not_a_key": 1}))
        out = tmp_path / "run"
        assert main(["--config", str(config), "--output-dir", str(out), "generate"]) == EXIT_VALIDATION


class TestExitCodes:
    def test_missing_input_path_is_validation(self, tmp_path):
        assert main(["train", "midnn", str(tmp_path / "missing.jsonl")]) == EXIT_VALIDATION

    def test_unknown_variant_is_validation(self, tmp_path):
        log = tmp_path / "x.jsonl"
        log.write_text("")
        assert main(["train", "nope", str(log)]) == EXIT_VALIDATION

    def test_corrupt_model_is_io(self, tmp_path):
        model = tmp_path / "bad.model"
        model.write_bytes(b"garbage")
        log = tmp_path / "log.jsonl"
        log.write_text('{"query_id": "q0", "items": [{"id": 0, "price": 1.0, "features": [0.1]}], "labels": [1]}\n')
        assert main(["rerank", str(model), str(log)]) == EXIT_IO

    def test_corrupt_log_is_io(self, tmp_path):
        out = tmp_path / "run"
        assert _generate(out) == 0
        assert main([
            "--output-dir", str(out),
            "train", "midnn", str(out / "train.jsonl"), "--epochs", "1", "--hidden-sizes", "4",
        ]) == 0
        bad_log = tmp_path / "bad.jsonl"
        bad_log.write_text("{broken\n")
        assert main(["rerank", str(out / "midnn.model"), str(bad_log)]) == EXIT_IO

    def test_empty_training_log_is_validation(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main(["--output-dir", str(tmp_path), "train", "midnn", str(log)]) == EXIT_VALIDATION

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path):
        log = tmp_path / "inf.jsonl"
        log.write_text(
            '{"query_id": "q0", "items": ['
            '{"id": 0, "price": 1.0, "features": [1e400, -1e400]}, '
            '{"id": 1, "price": 1.0, "features": [0.0, 1.0]}], "labels": [1, 0]}\n'
        )
        assert main([
            "--output-dir", str(tmp_path),
            "train", "midnn", str(log), "--epochs", "1", "--hidden-sizes", "3",
        ]) == EXIT_DIVERGED
