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
import tempfile
import weakref
from pathlib import Path
from types import SimpleNamespace

import click
import numpy as np
import pytest
import yaml
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import mirank

from mirank import ModelConfig, init_model
from mirank import persistence
from mirank import cli
from mirank.cli import (DEFAULTS, EXIT_DIVERGED, EXIT_IO, EXIT_VALIDATION, _read_config, _resolve_config, _write_csv,
                        main)
from mirank.configs import VARIANTS, ModelParams
from mirank.core import ValidationError
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
        assert len(reranked.records) == len(original.records)
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
        assert len(lines) == 1 + 2 * len(original.records)
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
        assert len(read_logs(out / "train.jsonl").records) == 0
        assert len(read_logs(out / "test.jsonl").records) == 12

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

    def test_every_output_file_goes_through_the_atomic_writer(self, tmp_path, monkeypatch):
        """Every file the six commands write, tables, reports and manifests
        included, reaches disk through persistence._atomic_write, which also
        makes the missing output directories."""
        written = []
        atomic_write = persistence._atomic_write

        def recording(path, chunks):
            written.append(path)
            atomic_write(path, chunks)

        monkeypatch.setattr(persistence, "_atomic_write", recording)
        monkeypatch.setattr("mirank.cli._atomic_write", recording)
        out = tmp_path / "nested" / "run"
        assert _generate(out) == 0
        midnn, mirnn, test_log = str(out / "midnn.model"), str(out / "mirnn.model"), str(out / "test.jsonl")
        for argv in (
            ["train", "midnn", str(out / "train.jsonl"), "--epochs", "1"],
            ["train", "mirnn", str(out / "train.jsonl"), "--epochs", "1"],
            ["rerank", mirnn, test_log],
            ["evaluate", test_log, midnn, mirnn],
            ["bench", mirnn, "--sizes", "2,3", "--reps", "1"],
            ["oracle-compare", mirnn, test_log, "--max-n", "3", "--beams", "1"],
        ):
            assert main(["--output-dir", str(out), *argv]) == 0
        files = sorted(path for path in out.rglob("*") if path.is_file())
        assert len(files) == 19 and sorted(written) == files

    def test_failed_table_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "table.csv"
        _write_csv(path, [[1, 0.1]], ["id", "value"])
        assert path.read_bytes() == b"id,value\r\n1,0.1\r\n"

        def rows():
            yield [2, 0.2]
            raise RuntimeError("rows failed")

        with pytest.raises(RuntimeError, match="rows failed"):
            _write_csv(path, rows(), ["id", "value"])
        assert path.read_bytes() == b"id,value\r\n1,0.1\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]



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
        assert manifest["resolved_config"]["price_sensitivity"] == 1e-3
        total = len(read_logs(out / "train.jsonl").records) + len(read_logs(out / "test.jsonl").records)
        assert total == 6

    def test_config_keys_are_pinned(self):
        """The defaults come from the config dataclasses; the behaviour seed
        must not become a config key."""
        assert set(DEFAULTS) == {
            "d", "hidden_sizes", "lstm_hidden", "attn_size", "pos_size", "max_positions",
            "epochs", "batch_size", "sequence_batch_size", "learning_rate",
            "beam_size", "items_per_query", "n_queries", "catalog_size",
            "train_fraction", "price_sensitivity", "position_bias_strength",
            "order_effect_strength", "primacy_strength", "base_rate",
        }

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        """ranking_policy was a key until every log came to be shown in a
        random order, and gamma until every feed-forward model came to sort by
        price times probability."""
        for key, value in (("not_a_key", 1), ("ranking_policy", "random"), ("gamma", 1)):
            config = tmp_path / f"{key}.yaml"
            config.write_text(yaml.safe_dump({key: value}))
            out = tmp_path / "run"
            assert main(["--config", str(config), "--output-dir", str(out), "generate"]) == EXIT_VALIDATION
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ") and key in lines[0], lines
            assert not out.exists()

    @pytest.mark.parametrize("config, code", (
        ("beam_size: 2\n", 0),
        ("not_a_key: 1\n", EXIT_VALIDATION),
        ("- 1\n- 2\n", EXIT_VALIDATION),
        ("epochs: 1.5\n", EXIT_VALIDATION),
        ("epochs: [1\n", EXIT_VALIDATION),
        ("\xff: 1\n", EXIT_VALIDATION),
        ('n_queries: "2_0"\n', EXIT_VALIDATION),
    ), ids=("valid", "unknown-key", "list", "fractional", "malformed", "not-utf8", "underscore-text"))
    @pytest.mark.parametrize("command", ("evaluate", "bench", "oracle-compare"))
    def test_every_command_checks_the_config_file(self, command, config, code, tmp_path, capsys):
        """evaluate, bench and oracle-compare once ignored --config and exited
        0 on a bad file; a file that does not parse ended in a traceback."""
        log, model, config_path = tmp_path / "test.jsonl", tmp_path / "mirnn.model", tmp_path / "config.yaml"
        write_logs(mixed_length_log((5, 4), d=3), log)
        save_model(init_model("mirnn", ModelConfig(d=3, hidden_sizes=(4,), lstm_hidden=4), seed=0), model)
        config_path.write_bytes(config.encode("latin-1"))
        args = {
            "evaluate": [str(log), str(model)],
            "bench": [str(model), "--sizes", "2,3", "--beams", "1", "--reps", "1"],
            "oracle-compare": [str(model), str(log), "--max-n", "3", "--beams", "1"],
        }[command]
        out = tmp_path / "run"
        assert main(["--config", str(config_path), "--output-dir", str(out), command, *args]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1 and "config" in err
            assert not out.exists()
        else:
            assert err == "" and any(out.iterdir())


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

    @pytest.mark.parametrize("command", ("evaluate", "train"))
    def test_log_that_is_not_utf8_is_io(self, command, tmp_path, capsys):
        """Such a log once ended in a raw UnicodeDecodeError traceback, exit 1."""
        model, log = tmp_path / "midnn.model", tmp_path / "bad.jsonl"
        save_model(init_model("midnn", ModelConfig(d=2, hidden_sizes=(3,)), seed=0), model)
        log.write_bytes(b"\xff\xfe\x00garbage\n")
        args = [str(log), str(model)] if command == "evaluate" else ["midnn", str(log)]
        out = tmp_path / "run"
        assert main(["--output-dir", str(out), command, *args]) == EXIT_IO
        assert capsys.readouterr().err.splitlines() == ["error: line 1: not UTF-8 (byte 0xff at column 1)"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "variant, extra",
        [pytest.param(variant, (), id=variant) for variant in VARIANTS]
        + [pytest.param(variant, ("--rerank-size", "1"), id=f"{variant}-rerank-size-1") for variant in VARIANTS],
    )
    def test_every_variant_reranks(self, variant, extra, tmp_path):
        out = tmp_path / "run"
        assert _generate(out) == 0
        config = ModelConfig(d=4, hidden_sizes=(4,), lstm_hidden=3, attn_size=2, pos_size=2)
        save_model(init_model(variant, config, seed=0), out / "model.model")
        assert main(["--output-dir", str(out), "rerank", str(out / "model.model"), str(out / "test.jsonl"), *extra]) == 0

    def test_gamma_is_no_option(self, tmp_path, capsys):
        """--gamma bent the baseline's sort until every feed-forward model came
        to sort by price times probability."""
        log, model, out = tmp_path / "test.jsonl", tmp_path / "model.model", tmp_path / "run"
        write_logs(mixed_length_log((5, 4), d=3), log)
        save_model(init_model("baseline", ModelConfig(d=3, hidden_sizes=(4,)), seed=0), model)
        assert main(["--output-dir", str(out), "rerank", str(model), str(log), "--gamma", "1"]) == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: No such option") and "--gamma" in lines[0], lines
        assert not out.exists()

    @pytest.mark.parametrize("seed", ("-1", str(2**64)))
    @pytest.mark.parametrize("command", ("generate", "train", "rerank", "evaluate", "bench", "oracle-compare"))
    def test_seed_out_of_range_is_validation(self, command, seed, tmp_path, capsys):
        """Once only the commands that draw from the seed checked it: bench
        and evaluate exited 0 on --seed -1 and recorded it."""
        log, model = tmp_path / "test.jsonl", tmp_path / "mirnn.model"
        write_logs(mixed_length_log((5, 4), d=3), log)
        save_model(init_model("mirnn", ModelConfig(d=3, hidden_sizes=(4,), lstm_hidden=4), seed=0), model)
        args = {
            "generate": [*GEN_FLAGS],
            "train": ["mirnn", str(log), "--epochs", "1"],
            "rerank": [str(model), str(log)],
            "evaluate": [str(log), str(model)],
            "bench": [str(model), "--sizes", "2,3", "--beams", "1", "--reps", "1"],
            "oracle-compare": [str(model), str(log), "--max-n", "3", "--beams", "1"],
        }[command]
        out = tmp_path / "run"
        assert main(["--seed", seed, "--output-dir", str(out), command, *args]) == EXIT_VALIDATION
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_runs_bench(self, tmp_path):
        """bench draws the candidates of rerank size n from seed (seed + n) mod 2**64."""
        model, out = tmp_path / "mirnn.model", tmp_path / "run"
        save_model(init_model("mirnn", ModelConfig(d=3, hidden_sizes=(4,), lstm_hidden=4), seed=0), model)
        seed = 2**64 - 1
        argv = ["--seed", str(seed), "--output-dir", str(out), "bench", str(model), "--sizes", "2,3", "--reps", "1"]
        assert main(argv) == 0
        assert json.loads((out / "manifest_bench.json").read_text())["seed"] == seed

    @pytest.mark.parametrize("variant, flags, config, named", (
        ("mirnn", ("--rerank-size", "0"), None, "--rerank-size"),
        ("midnn", ("--rerank-size", "-2"), None, "--rerank-size"),
        ("mirnn", ("--beam-size", "0"), None, "beam_size"),
        ("mirnn_attention", ("--beam-size", "-1"), None, "beam_size"),
        ("mirnn", (), "beam_size: 0\n", "beam_size"),
    ), ids=("rerank-size-0", "rerank-size-negative", "beam-size-0", "beam-size-negative", "config-beam-size-0"))
    def test_bad_rerank_setting_leaves_no_directory(self, variant, flags, config, named, tmp_path, capsys):
        """Each of these once exited 2 only after making an empty output directory."""
        log, model = tmp_path / "test.jsonl", tmp_path / "model.model"
        write_logs(mixed_length_log((5, 4), d=3), log)
        model_config = ModelConfig(d=3, hidden_sizes=(4,), lstm_hidden=4, attn_size=2, pos_size=2)
        save_model(init_model(variant, model_config, seed=0), model)
        config_flags = []
        if config is not None:
            (tmp_path / "config.yaml").write_text(config)
            config_flags = ["--config", str(tmp_path / "config.yaml")]
        out = tmp_path / "run"
        assert main([*config_flags, "--output-dir", str(out), "rerank", str(model), str(log), *flags]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not out.exists()

    @pytest.mark.parametrize("variant", ("baseline", "midnn"))
    def test_feed_forward_rerank_ignores_the_beam_size(self, variant, tmp_path):
        log, model = tmp_path / "test.jsonl", tmp_path / "model.model"
        write_logs(mixed_length_log((5, 4), d=3), log)
        save_model(init_model(variant, ModelConfig(d=3, hidden_sizes=(4,)), seed=0), model)
        assert main(["--output-dir", str(tmp_path / "run"), "rerank", str(model), str(log), "--beam-size", "0"]) == 0

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
        ('{"id": 1, "price": 2.0, "features": [0.3, [0.4]]}', ""),
    ), ids=(
        "price-overflow", "feature-overflow", "duplicate-id", "zero-price", "negative-price",
        "truth-overflow", "negative-truth", "fractional-id", "string-id",
        "string-price", "null-price", "string-feature", "string-truth", "null-truth", "nested-feature",
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
        (("bench", "{model}", "--sizes", "5,,8"), "--sizes"),
        (("oracle-compare", "{model}", "{log}", "--beams", ""), "--beams"),
        (("oracle-compare", "{model}", "{log}", "--beams", "4,"), "--beams"),
        (("oracle-compare", "{model}", "{log}", "--max-n", "0"), "--max-n"),
        (("oracle-compare", "{model}", "{log}", "--max-n", "-3"), "--max-n"),
        (("generate", "--n-queries", "10", "--train-fraction", "1.5"), "train_fraction"),
        (("generate", "--n-queries", "-5"), "n_queries"),
        (("generate", "--d", "0"), "d must be"),
        (("generate", "--items-per-query", "0"), "items_per_query"),
        (("generate", "--items-per-query", "-1"), "items_per_query"),
        (("train", "mirnn", "{log}", "--hidden-sizes", "4,a"), "--hidden-sizes"),
        (("train", "mirnn", "{log}", "--hidden-sizes", "3,,4"), "--hidden-sizes"),
        (("generate", "--n-queries", "2_0", "--catalog-size", "3_0"), "--n-queries"),
        (("generate", "--catalog-size", "3_0"), "--catalog-size"),
        (("generate", "--base-rate", " 0.3"), "--base-rate"),
        (("train", "mirnn", "{log}", "--hidden-sizes", "1_0"), "option '--hidden-sizes'"),
        (("train", "mirnn", "{log}", "--hidden-sizes", "4, 3"), "--hidden-sizes"),
        (("train", "midnn", "{log}", "--epochs", "\u0663"), "--epochs"),
        (("train", "mirnn", "{log}", "--lstm-hidden", "4 "), "--lstm-hidden"),
        (("train", "mirnn", "{log}", "--learning-rate", "1e-3_0"), "--learning-rate"),
        (("rerank", "{model}", "{log}", "--beam-size", "\uff13"), "--beam-size"),
        (("bench", "{model}", "--sizes", "5, 1_0"), "--sizes"),
        (("bench", "{model}", "--sizes", "5, 10"), "--sizes"),
        (("oracle-compare", "{model}", "{log}", "--beams", "1_0"), "--beams"),
        (("--seed", "-1", "generate"), "--seed"),
        (("generate", "--no-such-flag"), "--no-such-flag"),
        (("generate", "--ranking-policy", "random"), "--ranking-policy"),
        (("train", "mirnn"), "TRAIN_PATH"),
        (("train", "lstm", "{log}"), "'lstm'"),
        (("no-such-command",), "no-such-command"),
        ((), "Missing command"),
    ), ids=(
        "attention-size-negative", "reps-0", "sizes-empty", "sizes-text", "sizes-one", "sizes-repeated",
        "sizes-0", "sizes-empty-part", "beams-empty", "beams-trailing-comma", "max-n-0", "max-n-negative",
        "train-fraction-above-1", "n-queries-negative", "d-0", "items-per-query-0", "items-per-query-negative",
        "hidden-sizes-text", "hidden-sizes-empty-part", "n-queries-underscore", "catalog-size-underscore",
        "base-rate-blank", "hidden-sizes-underscore", "hidden-sizes-blank", "epochs-arabic-indic-digit",
        "lstm-hidden-blank", "learning-rate-underscore", "beam-size-fullwidth-digit", "sizes-underscore",
        "sizes-blank", "beams-underscore", "seed-negative", "unknown-option",
        "retired-ranking-policy", "missing-argument", "unknown-variant", "unknown-command", "no-command",
    ))
    def test_bad_list_or_count_is_validation(self, args, named, tmp_path, capsys):
        """Each of these once ended in a traceback, or in exit 0 with a NaN,
        an out-of-range split, an empty list part dropped or number text read
        loosely (`2_0` as 20, `' 0.3'` as 0.3, the Arabic-Indic digit three as 3); click's own rejections (the last seven) once
        printed a usage block above an `Error:` line. Now each prints one
        `error:` line, exits 2 and makes no output directory."""
        out = tmp_path / "run"
        assert _generate(out) == 0
        model = out / "mirnn_attention.model"
        save_model(init_model("mirnn_attention", ModelConfig(d=4, lstm_hidden=3, attn_size=2, pos_size=2), seed=0), model)
        capsys.readouterr()
        args = [arg.format(log=out / "test.jsonl", model=model) for arg in args]
        assert main(["--output-dir", str(tmp_path / "bad"), *args]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0], captured.err
        assert captured.out == "" and not (tmp_path / "bad").exists()

    def test_signed_and_exponent_flag_text_converts(self, tmp_path):
        """A sign and an exponent are part of a plain ASCII literal, so such flags still convert."""
        out = tmp_path / "run"
        assert _generate(out) == 0
        assert main(["--output-dir", str(out), "train", "midnn", str(out / "train.jsonl"),
                     "--epochs", "+1", "--learning-rate", "1e-3", "--hidden-sizes", "3,+2"]) == 0
        resolved = json.loads((out / "manifest_train_midnn.json").read_text())["resolved_config"]
        assert [resolved[key] for key in ("epochs", "learning_rate", "hidden_sizes")] == [1, 1e-3, [3, 2]]

    @staticmethod
    def _nan_model_run(tmp_path, command):
        """The argv of ``command`` on a model whose blocks alternate +-1e300:
        it saves and loads (every value is finite) but predicts NaN. The model
        is a midnn, or a mirnn_attention for oracle-compare, which needs a
        recurrent model (a +-1e300 mirnn saturates to a finite GMV). evaluate
        scores a sound model first. Also returns the model's path and the
        log's first query id."""
        out = tmp_path / "run"
        assert _generate(out) == 0
        variant = "mirnn_attention" if command == "oracle-compare" else "midnn"
        config = ModelConfig(d=4, hidden_sizes=(4,), lstm_hidden=3, attn_size=2, pos_size=2)
        fresh = init_model(variant, config, seed=0)
        huge = out / "huge.model"
        save_model(ModelParams(variant, fresh.config, {
            name: np.resize([1e300, -1e300], block.shape) for name, block in fresh.blocks.items()
        }), huge)
        sound = out / "sound.model"
        save_model(init_model("mirnn_attention", config, seed=0), sound)
        log = out / "test.jsonl"
        args = {
            "evaluate": [log, sound, huge, "--attention-size", "5"],
            "rerank": [huge, log],
            "oracle-compare": [huge, log],
            "bench": [huge, "--sizes", "3,4", "--reps", "1"],
        }[command]
        argv = ["--output-dir", str(tmp_path / "bad"), command, *map(str, args)]
        return argv, huge, read_logs(log).records[0].query_id

    @pytest.mark.parametrize("command", ("evaluate", "rerank", "oracle-compare", "bench"))
    def test_nan_predictions_are_validation(self, command, tmp_path, capsys):
        """evaluate and rerank once exited 0 with NaN in metrics.json and
        rerank_gmv.csv, oracle-compare ended in a traceback, and bench named
        neither the model nor the size; now each exits 2 naming the model and
        the query (bench: the rerank size), and leaves no output directory:
        rerank fails on its first record, before anything is written.
        evaluate, rerank and oracle-compare name them in one shape, through
        core.naming."""
        argv, huge, first_query = self._nan_model_run(tmp_path, command)
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        if command == "bench":
            assert "model huge, rerank size 3" in err and "beam size 0" in err
        else:
            assert err.startswith(f"error: model {huge}, query {first_query}: ")
        assert "nan" in err.lower()
        assert "Traceback" not in err
        bad = tmp_path / "bad"
        assert not bad.exists()

    @pytest.mark.parametrize("command", ("evaluate", "rerank", "oracle-compare", "bench"))
    def test_nan_predictions_write_one_stderr_line(self, command, tmp_path):
        """numpy's overflow warnings once came before the error line."""
        argv, _, _ = self._nan_model_run(tmp_path, command)
        env = {**os.environ, "PYTHONPATH": str(Path(mirank.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-m", "mirank.cli", *argv], env=env, capture_output=True, text=True)
        assert result.returncode == EXIT_VALIDATION
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr

    def test_oracle_compare_on_a_feed_forward_model_is_validation(self, tmp_path, capsys):
        """oracle-compare on a midnn once made its output directory and ran
        the exhaustive oracle before it failed."""
        out = tmp_path / "run"
        assert _generate(out) == 0
        model = out / "midnn.model"
        save_model(init_model("midnn", ModelConfig(d=4, hidden_sizes=(4,)), seed=0), model)
        capsys.readouterr()
        bad = tmp_path / "bad"
        assert main(["--output-dir", str(bad), "oracle-compare", str(model), str(out / "test.jsonl")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == ["error: oracle-compare requires a recurrent model, got 'midnn'"]
        assert not bad.exists()

    @staticmethod
    def _assert_rejected(argv, bad, capsys):
        """``argv`` exits 2 with one ``error:`` line and makes no ``bad`` directory; returns the line."""
        capsys.readouterr()
        assert main(["--output-dir", str(bad), *argv]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert captured.out == "" and not bad.exists()
        return lines[0]

    @pytest.mark.parametrize("command", ("evaluate", "bench"))
    def test_repeated_model_stem_is_validation(self, command, tmp_path, capsys):
        """Each model is named by its file stem, so run/midnn.model and
        dup/midnn.model once gave one metrics.json entry or one latency.csv
        model, the other silently dropped, with exit 0."""
        out = tmp_path / "run"
        assert _generate(out) == 0
        paths = [out / "midnn.model", tmp_path / "dup" / "midnn.model"]
        paths[1].parent.mkdir()
        for seed, path in enumerate(paths):
            save_model(init_model("midnn", ModelConfig(d=4, hidden_sizes=(4,)), seed=seed), path)
        args = [str(out / "test.jsonl")] if command == "evaluate" else []
        args += [*map(str, paths), *(["--sizes", "2,3", "--reps", "1"] if command == "bench" else [])]
        line = self._assert_rejected([command, *args], tmp_path / "bad", capsys)
        assert line == f"error: models {paths[0]} and {paths[1]} share the name 'midnn'; rename one"

    def test_bench_on_models_of_two_d_is_validation(self, tmp_path, capsys):
        """bench drew its candidates at the first model's d, so a d=3 midnn
        and a d=4 mirnn once ended in a traceback with exit 1."""
        paths = [tmp_path / "midnn.model", tmp_path / "mirnn.model"]
        for d, path in zip((3, 4), paths):
            save_model(init_model(path.stem, ModelConfig(d=d, hidden_sizes=(4,), lstm_hidden=3), seed=0), path)
        line = self._assert_rejected(["bench", *map(str, paths), "--sizes", "2,3", "--reps", "1"], tmp_path / "bad", capsys)
        assert line == "error: latency_bench takes one or more models of one d, got d={'midnn': 3, 'mirnn': 4}"

    @pytest.mark.parametrize("variant", ("mirnn", "mirnn_attention"))
    def test_batch_size_flag_on_a_recurrent_variant_is_validation(self, variant, tmp_path, capsys):
        """A recurrent variant trains in batches of sequence_batch_size, so
        --batch-size once changed nothing but the manifest."""
        out = tmp_path / "run"
        assert _generate(out) == 0
        capsys.readouterr()
        argv = ["--output-dir", str(out), "train", variant, str(out / "train.jsonl"), "--batch-size", "8"]
        assert main(argv) == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --batch-size ") and "sequence_batch_size" in lines[0]
        assert not (out / f"{variant}.model").exists()

    @pytest.mark.parametrize("variant", ("mirnn", "midnn"))
    def test_mixed_feature_dimension_is_validation(self, variant, tmp_path, capsys):
        """A training log whose records have d = 3, 3, 4, 4 once ended in a
        traceback with exit 1."""
        log = tmp_path / "mixed.jsonl"
        log.write_text("".join(
            json.dumps({"query_id": f"q{q}", "labels": [1, 0], "items": [
                {"id": i, "price": 1.0 + i, "features": [0.5 * (i + q)] * d} for i in range(2)
            ]}) + "\n"
            for q, d in enumerate((3, 3, 4, 4))
        ))
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["--output-dir", str(out), "train", variant, str(log), "--epochs", "1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: record q2 has d=4 features, the model takes d=3"]
        assert not (out / f"{variant}.model").exists()

    def test_empty_training_log_is_validation(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main(["--output-dir", str(tmp_path), "train", "midnn", str(log)]) == EXIT_VALIDATION

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

    @pytest.mark.parametrize("variant", ["mirnn", "mirnn_attention"])
    def test_non_finite_parameters_exit_diverged_and_write_no_model(self, variant, tmp_path, capsys):
        """One epoch at learning rate 1e308 leaves the loss finite but blocks
        holding inf: train once exited 0 with a model that evaluate rejects."""
        gen, out = tmp_path / "gen", tmp_path / "out"
        assert main(["--seed", "7", "--output-dir", str(gen), "generate", "--n-queries", "40",
                     "--items-per-query", "10"]) == 0
        capsys.readouterr()
        assert main(["--seed", "3", "--output-dir", str(out), "train", variant, str(gen / "train.jsonl"),
                     "--epochs", "1", "--learning-rate", "1e308"]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: non-finite parameters at the end of epoch 0 ({variant})"]
        assert not out.exists()

    @pytest.mark.parametrize("flags, config", (
        (("--epochs", "0"), ""),
        ((), "batch_size: 0\n"),
        ((), "hidden_sizes: 8\n"),
        ((), "lstm_hidden: abc\n"),
        (("--hidden-sizes", ","), ""),
        (("--hidden-sizes", "0,4"), ""),
        (("--hidden-sizes", "3,,4"), ""),
        (("--hidden-sizes", "4,"), ""),
        (("--lstm-hidden", "0"), ""),
    ), ids=(
        "epochs-0", "batch-size-0", "scalar-hidden-sizes", "text-lstm-hidden",
        "empty-hidden-sizes", "zero-hidden-size", "empty-hidden-size", "trailing-comma-hidden-sizes", "lstm-hidden-0",
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

    @staticmethod
    def _train_with_config(tmp_path, config):
        """Exit code of a one-record midnn ``train`` run under the YAML ``config``."""
        log, config_path = tmp_path / "log.jsonl", tmp_path / "config.yaml"
        log.write_text(
            '{"query_id": "q0", "items": ['
            '{"id": 0, "price": 1.0, "features": [1.0, -1.0]}, '
            '{"id": 1, "price": 2.0, "features": [0.0, 1.0]}], "labels": [1, 0]}\n'
        )
        config_path.write_text(config)
        return main(["--config", str(config_path), "--output-dir", str(tmp_path), "train", "midnn", str(log)])

    @pytest.mark.parametrize("config, key", (
        ("epochs: 1.9\n", "epochs"),
        ("epochs: true\n", "epochs"),
        ("hidden_sizes: [4.7, 3]\n", "hidden_sizes"),
        ("hidden_sizes: [4, false]\n", "hidden_sizes"),
        ("learning_rate: true\n", "learning_rate"),
        ('lstm_hidden: "1_0"\n', "lstm_hidden"),
        ('epochs: " 1"\n', "epochs"),
        ('hidden_sizes: ["\\u0663"]\n', "hidden_sizes"),
    ), ids=(
        "fractional-epochs", "bool-epochs", "fractional-hidden-size", "bool-hidden-size", "bool-learning-rate",
        "underscore-lstm-hidden", "blank-epochs", "arabic-indic-digit-hidden-size",
    ))
    def test_fractional_or_bool_config_number_is_validation(self, config, key, tmp_path, capsys):
        """An integer key takes no fraction and no bool, and a float key no
        bool: each once trained with the value truncated and exited 0. Number
        text off the plain ASCII form once trained too, `"1_0"` as 10."""
        assert self._train_with_config(tmp_path, config) == EXIT_VALIDATION
        assert f"config key '{key}'" in capsys.readouterr().err

    def test_integer_text_and_whole_floats_still_convert(self, tmp_path):
        config = "epochs: '2'\nbatch_size: 4.0\nhidden_sizes: ['3', 2.0]\nlearning_rate: '1e-2'\n"
        assert self._train_with_config(tmp_path, config) == 0
        resolved = json.loads((tmp_path / "manifest_train_midnn.json").read_text())["resolved_config"]
        keys = ("epochs", "batch_size", "hidden_sizes", "learning_rate")
        assert [resolved[key] for key in keys] == [2, 4, [3, 2], 0.01]


def test_options_named_after_config_keys_take_text():
    """Every option named after a config key is given to _resolve_config as
    text, so the key's default alone decides its type; a click type on one
    would convert it by a second rule."""
    named = []
    for command in cli.cli.commands.values():
        for param in command.params:
            if isinstance(param, click.Option) and param.name in DEFAULTS:
                assert param.type is click.STRING, (command.name, param.name, param.type)
                assert param.opts == ["--" + param.name.replace("_", "-")], (command.name, param.opts)
                named.append(param.name)
    assert sorted(named) == sorted((
        "n_queries", "items_per_query", "catalog_size", "train_fraction", "price_sensitivity",
        "position_bias_strength", "order_effect_strength", "primacy_strength", "base_rate", "d",
        "epochs", "batch_size", "learning_rate", "hidden_sizes", "lstm_hidden", "beam_size",
    ))


def _converted(convert):
    """What ``convert()`` returns, or ValidationError if it raises one."""
    try:
        return convert()
    except ValidationError:
        return ValidationError


@seed(33)
@settings(max_examples=100, deadline=None)
@given(st.text(st.sampled_from("0123456789+-_ .e,\u0663\uff13\u0969"), max_size=6))
def test_a_flag_and_a_quoted_config_value_are_one_rule(text):
    """The same text given as a flag or as a quoted YAML value converts to
    the same value, or is a ValidationError both ways; a list flag is split
    at commas, so its YAML twin is the list of the quoted parts."""
    ctx = SimpleNamespace(obj={"config": {}})
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.yaml"
        for key in ("lstm_hidden", "learning_rate", "hidden_sizes"):
            config.write_text(yaml.safe_dump({key: text.split(",") if key == "hidden_sizes" else text}))
            from_flag = _converted(lambda: _resolve_config(ctx, {key: text})[key])
            from_file = _converted(lambda: _read_config(str(config))[key])
            assert from_flag == from_file, (key, text, from_flag, from_file)


@pytest.mark.parametrize("module", ("scipy", "scipy.special", "scipy.stats", "yaml"))
def test_import_leaves_scipy_and_yaml_unloaded(module):
    """The package and its CLI execute none of scipy's packages, only the
    extension that defines expit, and load yaml only to read --config:
    scipy.stats would add about 430 modules and 44 MiB to every run,
    scipy.special about 270 modules and 19 MiB, the scipy package about
    0.9 MiB and yaml about 0.6 MiB."""
    env = {**os.environ, "PYTHONPATH": str(Path(mirank.__file__).parents[1])}
    code = f"import sys, mirank, mirank.cli; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
