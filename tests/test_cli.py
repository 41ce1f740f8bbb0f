"""Command-line interface: pipeline round trip, config layering, exit codes."""

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

import mirank

from mirank import ModelConfig, init_model
from mirank.cli import DEFAULTS, EXIT_DIVERGED, EXIT_IO, EXIT_VALIDATION, main
from mirank.configs import VARIANTS, ModelParams
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


# SHA-256 of each output file of TestPipeline.test_output_bytes_are_pinned,
# taken before the CLI's tables, output directory and model loading each
# moved into one helper: any byte drift in a written table, log or model fails.
PINNED_OUTPUT_DIGESTS = {
    "attention_matrix_mirnn_attention.csv": "cfd830eca2e9d51d210e53e34dc0a4e55fc6e1ad4ae3658d4098683dc0f3d9d5",
    "baseline.model": "7a98f6abfc050144a1304fbef797d32374d491e994bd85adf071302627e279ab",
    "baseline_loss_curve.csv": "b2eb3216f39cfa109804f618e9a6e18522079cf43962aa8557e443c4a58a2efa",
    "metrics.json": "83cbfdb1a8ad7c80f0bc4984ed513eb4fec26604fb411d07ae5d4ae9a59d0e9b",
    "midnn.model": "90e48d8e28faa483a8202befe22c282f3087f2df18f488a3ab29d2b951de38d3",
    "midnn_loss_curve.csv": "9c0b68958ef0040765db7db6cac72bc4c931e157231166cf783021983d13bd61",
    "mirnn.model": "85856283f3e73b8e15cd773e5dd11f047f4b739f52072ba67b4c1dad335c864d",
    "mirnn_attention.model": "54941e5f0ba70e75563075fe66bcd89dcd0778802d9954f665fdea138482d848",
    "mirnn_attention_loss_curve.csv": "d9e08d54c96f57a32a2ae55e3a18304bbb7eb1adfacc11e67678ee7da84f9879",
    "mirnn_loss_curve.csv": "e68ae17c12ef5249ca2b13b6fc5502e2d352229f0e7fb152e85554dad95852ad",
    "oracle_mirnn/oracle_compare.csv": "2a16e5d4b6852b1324cf85cfc3446caa9d12c466087a8021593efc257668bced",
    "oracle_mirnn_attention/oracle_compare.csv": "4da9ab43d2013c230147cf52e8f16a1499f8ab5784db0de25ca106beca5414b7",
    "rerank_baseline/rerank_gmv.csv": "c6f6344e5e6d2c7b77f11998c45bbd862e71081cdafaf215285e6931e44e355b",
    "rerank_baseline/reranked.jsonl": "4f353c63d6b1db4bba7e7e707988e3034f28ddcd71b1f3e463394930b1b2294f",
    "rerank_midnn/rerank_gmv.csv": "8b1096b3a92692a30256f4ab1f8e9a665f3f1e4df7f952a9e5ec2c8cd5eb673a",
    "rerank_midnn/reranked.jsonl": "68c07ff23dbc725413d3eee39a6666f10f5955cad171a09602f0973b1a82d428",
    "rerank_mirnn/rerank_gmv.csv": "6dbe1d1279f3f9c02df81259009aa782fbebc592a5859984c22ecdba11a95d9d",
    "rerank_mirnn/reranked.jsonl": "c13f4b64952641027ca0679aa259d25faff609db89802b9811e9fd9b3d489ab6",
    "rerank_mirnn_attention/rerank_gmv.csv": "f6b5223e2f666d42d9908817ab0c2680dfe7ec84422fb67d8647b1ff7ddfbc4c",
    "rerank_mirnn_attention/reranked.jsonl": "7e7d5ad0b7019b278e34a31809fa006703b75d5b2fc4866a2162b38cf136c964",
    "test.jsonl": "531a1ddb6a3a51023f5e8f9243a0cbb80309d1a1e6a9e5e1939d1ea1e6fcadb6",
    "train.jsonl": "03479aa31d9036663d5992cf7263fefa277c39326e9d93fd740c0e7726e56871",
}


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
            a_ids, b_ids = a.candidate_set.ids, b.candidate_set.ids
            assert sorted(a_ids.tolist()) == sorted(b_ids.tolist())
            assert a_ids[3:].tolist() == b_ids[3:].tolist()

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

    def test_output_bytes_are_pinned(self, tmp_path):
        """Every file a tiny seeded generate / train / rerank / evaluate /
        oracle-compare run writes is pinned byte for byte. The manifests are
        left out: they record the run's input paths."""
        out = tmp_path / "run"
        assert _generate(out) == 0
        test_log = str(out / "test.jsonl")
        for variant in VARIANTS:
            assert main([
                "--seed", "7", "--output-dir", str(out), "train", variant, str(out / "train.jsonl"),
                "--epochs", "2", "--hidden-sizes", "8,4", "--lstm-hidden", "6",
            ]) == 0
            model = str(out / f"{variant}.model")
            assert main([
                "--output-dir", str(out / f"rerank_{variant}"), "rerank", model, test_log,
                "--rerank-size", "4", "--beam-size", "2",
            ]) == 0
            if variant in ("mirnn", "mirnn_attention"):
                assert main([
                    "--output-dir", str(out / f"oracle_{variant}"), "oracle-compare", model, test_log,
                    "--max-n", "4", "--beams", "1,2",
                ]) == 0
        models = [str(out / f"{variant}.model") for variant in VARIANTS]
        assert main(["--output-dir", str(out), "evaluate", test_log, *models, "--attention-size", "4"]) == 0
        digests = {
            path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file() and not path.name.startswith("manifest_")
        }
        assert digests == PINNED_OUTPUT_DIGESTS



class TestEvaluate:
    def _inputs(self, tmp_path):
        log = tmp_path / "test.jsonl"
        write_logs(mixed_length_log((9, 4, 12, 6, 9, 15, 4, 7), d=3), log)
        config = ModelConfig(d=3, hidden_sizes=(5, 4), lstm_hidden=4, attn_size=3, pos_size=2)
        paths = []
        for seed, variant in enumerate(VARIANTS):
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
        assert set(together) == set(VARIANTS)
        for variant, path in zip(VARIANTS, paths):
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

    @pytest.mark.parametrize("command", ("evaluate", "rerank", "oracle-compare"))
    def test_empty_test_log_is_validation(self, command, tmp_path, capsys):
        """Every command that reads a log rejects one with no records; rerank
        and oracle-compare once exited 0 with empty outputs or a NaN ratio."""
        log, paths = self._inputs(tmp_path)
        log.write_text("")
        args = [str(log), paths[1]] if command == "evaluate" else [paths[1], str(log)]
        out = tmp_path / "run"
        assert main(["--output-dir", str(out), command, *args]) == EXIT_VALIDATION
        assert "holds no records" in capsys.readouterr().err
        assert not out.exists()


class TestConfigLayering:
    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({
            "n_queries": 10, "items_per_query": 4, "catalog_size": 25,
            "d": 3, "base_rate": 0.35,
        }) + "price_sensitivity: 1e-3\n")  # PyYAML reads 1e-3 as a string
        out = tmp_path / "run"
        assert main([
            "--seed", "3", "--config", str(config), "--output-dir", str(out),
            "generate", "--n-queries", "6",
        ]) == 0
        manifest = json.loads((out / "manifest_generate.json").read_text())
        assert manifest["resolved_config"]["n_queries"] == 6  # flag wins
        assert manifest["resolved_config"]["items_per_query"] == 4  # file wins
        assert manifest["resolved_config"]["ranking_policy"] == "random"  # default
        assert manifest["resolved_config"]["price_sensitivity"] == 1e-3
        total = len(read_logs(out / "train.jsonl")) + len(read_logs(out / "test.jsonl"))
        assert total == 6

    def test_config_keys_are_pinned(self):
        """The defaults come from the config dataclasses; the behaviour seed
        must not become a config key."""
        assert set(DEFAULTS) == {
            "d", "hidden_sizes", "lstm_hidden", "attn_size", "pos_size", "max_positions",
            "epochs", "batch_size", "sequence_batch_size", "learning_rate",
            "gamma", "beam_size", "items_per_query", "n_queries", "catalog_size",
            "train_fraction", "ranking_policy", "price_sensitivity", "position_bias_strength",
            "order_effect_strength", "primacy_strength", "base_rate",
        }

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

    @pytest.mark.parametrize(
        "variant, extra",
        [pytest.param(variant, (), id=variant) for variant in VARIANTS]
        + [pytest.param(variant, ("--rerank-size", "1"), id=f"{variant}-rerank-size-1") for variant in VARIANTS],
    )
    def test_negative_gamma_is_validation(self, variant, extra, tmp_path, capsys):
        out = tmp_path / "run"
        assert _generate(out) == 0
        config = ModelConfig(d=4, hidden_sizes=(4,), lstm_hidden=3, attn_size=2, pos_size=2)
        save_model(init_model(variant, config, seed=0), out / "model.model")
        args = ["--output-dir", str(out), "rerank", str(out / "model.model"), str(out / "test.jsonl"), *extra]
        for gamma in ("-1", "nan", "inf"):
            capsys.readouterr()
            assert main([*args, "--gamma", gamma]) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert "gamma" in err and "Traceback" not in err
        assert main([*args, "--gamma", "0"]) == 0

    def test_non_finite_log_number_is_io(self, tmp_path, capsys):
        save_model(init_model("midnn", ModelConfig(d=2, hidden_sizes=(3,)), seed=0), tmp_path / "midnn.model")
        log = tmp_path / "nan.jsonl"
        log.write_text(
            '{"query_id": "q0", "items": ['
            '{"id": 0, "price": 1.0, "features": [0.1, 0.2]}, '
            '{"id": 1, "price": 2.0, "features": [NaN, 0.3]}], "labels": [1, 0]}\n'
        )
        out = tmp_path / "run"
        assert main(["--output-dir", str(out), "rerank", str(tmp_path / "midnn.model"), str(log)]) == EXIT_IO
        assert "line 1" in capsys.readouterr().err
        assert not (out / "rerank_gmv.csv").exists()

    @pytest.mark.parametrize("item, probs", (
        ('{"id": 1, "price": 1e999, "features": [0.3, 0.4]}', ""),
        ('{"id": 1, "price": 2.0, "features": [1e999, 0.4]}', ""),
        ('{"id": 0, "price": 2.0, "features": [0.3, 0.4]}', ""),
        ('{"id": 1, "price": 0.0, "features": [0.3, 0.4]}', ""),
        ('{"id": 1, "price": -2.0, "features": [0.3, 0.4]}', ""),
        ('{"id": 1, "price": 2.0, "features": [0.3, 0.4]}', ', "ground_truth_probs": [1e999, 0.5]'),
        ('{"id": 1, "price": 2.0, "features": [0.3, 0.4]}', ', "ground_truth_probs": [0.5, -3.0]'),
        ('{"id": 1.9, "price": 2.0, "features": [0.3, 0.4]}', ""),
        ('{"id": "2", "price": 2.0, "features": [0.3, 0.4]}', ""),
        ('{"id": 1, "price": "2.5", "features": [0.3, 0.4]}', ""),
        ('{"id": 1, "price": null, "features": [0.3, 0.4]}', ""),
        ('{"id": 1, "price": 2.0, "features": ["0.3", 0.4]}', ""),
        ('{"id": 1, "price": 2.0, "features": [0.3, 0.4]}', ', "ground_truth_probs": ["0.5", 0.5]'),
        ('{"id": 1, "price": 2.0, "features": [0.3, 0.4]}', ', "ground_truth_probs": [null, 0.5]'),
    ), ids=(
        "price-overflow", "feature-overflow", "duplicate-id", "zero-price", "negative-price",
        "truth-overflow", "negative-truth", "fractional-id", "string-id",
        "string-price", "null-price", "string-feature", "string-truth", "null-truth",
    ))
    def test_invalid_candidate_set_is_io(self, item, probs, tmp_path, capsys):
        save_model(init_model("midnn", ModelConfig(d=2, hidden_sizes=(3,)), seed=0), tmp_path / "midnn.model")
        log = tmp_path / "bad.jsonl"
        log.write_text(
            '{"query_id": "q0", "items": [{"id": 0, "price": 1.0, "features": [0.1, 0.2]}], "labels": [1]}\n'
            '{"query_id": "q1", "items": [{"id": 0, "price": 1.0, "features": [0.1, 0.2]}, %s], '
            '"labels": [1, 0]%s}\n' % (item, probs)
        )
        out = tmp_path / "run"
        assert main(["--output-dir", str(out), "rerank", str(tmp_path / "midnn.model"), str(log)]) == EXIT_IO
        assert "line 2" in capsys.readouterr().err
        assert not (out / "rerank_gmv.csv").exists()

    @pytest.mark.parametrize("command", ("rerank", "evaluate", "oracle-compare"))
    def test_model_feature_dim_mismatch_is_validation(self, command, tmp_path, capsys):
        out = tmp_path / "run"
        assert _generate(out) == 0  # d=4 features
        model, log = str(out / "mirnn.model"), str(out / "test.jsonl")
        save_model(init_model("mirnn", ModelConfig(d=5, lstm_hidden=3), seed=0), model)
        args = [log, model] if command == "evaluate" else [model, log]
        assert main(["--output-dir", str(out), command, *args]) == EXIT_VALIDATION
        assert "d=5" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", (
        (("evaluate", "{log}", "{model}", "--attention-size", "-1"), "--attention-size"),
        (("bench", "{model}", "--reps", "0"), "--reps"),
        (("bench", "{model}", "--sizes", ""), "--sizes"),
        (("bench", "{model}", "--sizes", "a"), "--sizes"),
        (("bench", "{model}", "--sizes", "5"), "--sizes"),
        (("bench", "{model}", "--sizes", "5,5"), "--sizes"),
        (("bench", "{model}", "--sizes", "0,5"), "--sizes"),
        (("oracle-compare", "{model}", "{log}", "--beams", ""), "--beams"),
        (("oracle-compare", "{model}", "{log}", "--max-n", "0"), "--max-n"),
        (("oracle-compare", "{model}", "{log}", "--max-n", "-3"), "--max-n"),
        (("generate", "--n-queries", "10", "--train-fraction", "1.5"), "train_fraction"),
        (("generate", "--n-queries", "-5"), "n_queries"),
        (("generate", "--d", "0"), "d must be"),
        (("generate", "--items-per-query", "0"), "items_per_query"),
        (("generate", "--items-per-query", "-1"), "items_per_query"),
        (("train", "mirnn", "{log}", "--hidden-sizes", "4,a"), "--hidden-sizes"),
    ), ids=(
        "attention-size-negative", "reps-0", "sizes-empty", "sizes-text", "sizes-one", "sizes-repeated",
        "sizes-0", "beams-empty", "max-n-0", "max-n-negative", "train-fraction-above-1", "n-queries-negative", "d-0",
        "items-per-query-0", "items-per-query-negative", "hidden-sizes-text",
    ))
    def test_bad_list_or_count_is_validation(self, args, named, tmp_path, capsys):
        """Each of these once ended in a traceback, or in exit 0 with a NaN
        or an out-of-range split."""
        out = tmp_path / "run"
        assert _generate(out) == 0
        model = out / "mirnn_attention.model"
        save_model(init_model("mirnn_attention", ModelConfig(d=4, lstm_hidden=3, attn_size=2, pos_size=2), seed=0), model)
        capsys.readouterr()
        args = [arg.format(log=out / "test.jsonl", model=model) for arg in args]
        assert main(["--output-dir", str(tmp_path / "bad"), *args]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ("evaluate", "rerank", "oracle-compare"))
    def test_nan_predictions_are_validation(self, command, tmp_path, capsys):
        """A midnn model whose blocks alternate +-1e300 saves and loads (every
        value is finite) but predicts NaN. evaluate and rerank once exited 0
        with NaN in metrics.json and rerank_gmv.csv, and oracle-compare ended
        in a traceback; now each exits 2 naming the model and the query, and
        leaves no output file (evaluate scores a sound model first)."""
        out = tmp_path / "run"
        assert _generate(out) == 0
        fresh = init_model("midnn", ModelConfig(d=4, hidden_sizes=(4,)), seed=0)
        huge = out / "huge.model"
        save_model(ModelParams("midnn", fresh.config, {
            name: np.resize([1e300, -1e300], block.shape) for name, block in fresh.blocks.items()
        }), huge)
        sound = out / "sound.model"
        save_model(init_model("mirnn_attention", ModelConfig(d=4, lstm_hidden=3, attn_size=2, pos_size=2), seed=0), sound)
        log = out / "test.jsonl"
        args = {
            "evaluate": [log, sound, huge, "--attention-size", "5"],
            "rerank": [huge, log],
            "oracle-compare": [huge, log],
        }[command]
        capsys.readouterr()
        bad = tmp_path / "bad"
        assert main(["--output-dir", str(bad), command, *map(str, args)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        first_query = read_logs(log).records[0].query_id
        assert f"model {huge}" in err and f"query {first_query}" in err and "nan" in err.lower()
        assert "Traceback" not in err
        assert not bad.exists() or not any(bad.iterdir())

    def test_empty_training_log_is_validation(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main(["--output-dir", str(tmp_path), "train", "midnn", str(log)]) == EXIT_VALIDATION

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text(
            '{"query_id": "q0", "items": ['
            '{"id": 0, "price": 1.0, "features": [1.0, -1.0]}, '
            '{"id": 1, "price": 1.0, "features": [0.0, 1.0]}], "labels": [1, 0]}\n'
        )
        assert main([
            "--output-dir", str(tmp_path), "train", "midnn", str(log),
            "--epochs", "3", "--hidden-sizes", "3", "--learning-rate", "1e308",
        ]) == EXIT_DIVERGED
        assert "non-finite loss" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, config", (
        (("--epochs", "0"), ""),
        (("--batch-size", "0"), ""),
        ((), "hidden_sizes: 8\n"),
        ((), "lstm_hidden: abc\n"),
        (("--hidden-sizes", ","), ""),
        (("--hidden-sizes", "0,4"), ""),
        (("--lstm-hidden", "0"), ""),
    ), ids=(
        "epochs-0", "batch-size-0", "scalar-hidden-sizes", "text-lstm-hidden",
        "empty-hidden-sizes", "zero-hidden-size", "lstm-hidden-0",
    ))
    def test_bad_train_config_is_validation(self, flags, config, tmp_path):
        out = tmp_path / "run"
        assert _generate(out) == 0
        config_path = tmp_path / "config.yaml"
        config_path.write_text(config)
        assert main([
            "--config", str(config_path), "--output-dir", str(out),
            "train", "mirnn", str(out / "train.jsonl"), *flags,
        ]) == EXIT_VALIDATION


def test_import_leaves_scipy_stats_unloaded():
    """The package and its CLI load scipy.special only: scipy.stats would add
    about 430 modules and 44 MiB to every run."""
    env = {**os.environ, "PYTHONPATH": str(Path(mirank.__file__).parents[1])}
    code = "import sys, mirank, mirank.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
