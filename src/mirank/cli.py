"""Command-line entry point for reproducible generate / train / rerank /
evaluate / bench / oracle-compare runs.

Configuration layers as defaults < config file < flags; every run writes a
manifest with the resolved configuration, the seed, and checksums of its
input files, so each experiment grid cell is auditable.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np
import yaml

from .configs import VARIANTS, ModelConfig, TrainConfig, coerce, config_from
from .core import MirankError, NonFiniteError, Ranking, ValidationError
from .features import extend_features
# evaluate scores through logged_predictions alone; perfbench/tracer.py still
# wraps attention_diagnostic, score_midnn_batch and sequence_probabilities here.
from .metrics import attention_diagnostic, logged_predictions, metric_report  # noqa: F401
from .models import score_midnn_batch, sequence_probabilities  # noqa: F401
from .nn.train import TrainingDiverged, train
from .persistence import (
    LogFormatError,
    ModelFileError,
    load_model,
    read_logs,
    save_model,
    write_logs,
)
from .ranker import beam_search, exhaustive_oracle, expected_gmv, greedy_reference, rerank_top_n
from .simgen import BehaviorConfig, generate_catalog, generate_logs

EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_DIVERGED = 4

DEFAULTS: dict = {
    **asdict(ModelConfig()),
    **asdict(TrainConfig()),
    "gamma": 1.0,
    "beam_size": 5,
    "items_per_query": 50,
    "n_queries": 1000,
    "catalog_size": 500,
    "train_fraction": 0.8,
    "ranking_policy": "random",
    # The seed comes from --seed, not from the config.
    **{key: value for key, value in asdict(BehaviorConfig()).items() if key != "seed"},
}


def _resolve_config(config_path: str | None, overrides: dict) -> dict:
    resolved = dict(DEFAULTS)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as handle:
            loaded = yaml.safe_load(handle) or {}
        if not isinstance(loaded, dict):
            raise ValidationError(f"config file {config_path} must hold a mapping")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ValidationError(f"unknown config keys in {config_path}: {sorted(unknown)}")
        resolved.update(loaded)
    resolved.update({key: value for key, value in overrides.items() if value is not None})
    return {key: coerce(key, value, DEFAULTS[key]) for key, value in resolved.items()}


def _load_model_for(model_path, dataset, log_path):
    """The model at ``model_path``; a log whose feature dimension differs
    from the model's ``d`` is a ValidationError."""
    params = load_model(model_path)
    dims = {record.candidate_set.feature_matrix.shape[1] for record in dataset.records}
    if dims - {params.config.d}:
        raise ValidationError(
            f"model {model_path} takes d={params.config.d} features, "
            f"log {log_path} has d={sorted(dims)}"
        )
    return params


def _out_dir(ctx) -> Path:
    """The run's output directory, created if missing."""
    out = ctx.obj["out"]
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, rows, header=None) -> None:
    """Write ``rows`` as a CSV table under an optional header row; csv
    writes each float in its shortest round-trip form."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read in 64 KiB blocks so that memory does not
    grow with the file."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, seed: int, cfg: dict, inputs: list) -> None:
    manifest = {
        "command": command,
        "seed": seed,
        "resolved_config": cfg,
        "inputs": {str(p): _sha256(p) for p in inputs},
    }
    (out_dir / f"manifest_{command}.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _echo(message: str, err: bool = False) -> None:
    """click.echo to the current sys.stdout (or sys.stderr). Left to pick the
    stream itself, click caches each one in a map that keeps it alive, so
    every stream an in-process caller swaps in would leak."""
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _parse_int_list(flag: str, text: str) -> list[int]:
    """The integers of the comma-separated ``text`` given to option ``flag``;
    an empty list, or a part that is not an integer of at least 1, is a
    ValidationError that names ``flag``."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise ValidationError(f"{flag} takes a comma-separated list of positive integers, got {text!r}")
    return values


@contextlib.contextmanager
def _naming(model_path, query_id):
    """Re-raise a NonFiniteError with the model and the query it came from."""
    try:
        yield
    except NonFiniteError as exc:
        raise NonFiniteError(f"model {model_path}, query {query_id}: {exc}") from None


def _read_records(path, role: str):
    """The Dataset of the JSONL log at ``path``; a log with no records is a
    ValidationError, whichever command reads it."""
    dataset = read_logs(path)
    if not dataset.records:
        raise ValidationError(f"{role} log {path} holds no records")
    return dataset


@click.group()
@click.option("--seed", type=int, default=0, show_default=True, help="64-bit unsigned seed.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="YAML/JSON config file.")
@click.option("--output-dir", type=click.Path(), default=".", show_default=True)
@click.pass_context
def cli(ctx, seed, config_path, output_dir):
    """Mutual-influence-aware reranking toolkit."""
    ctx.obj = {"seed": seed, "config_path": config_path, "out": Path(output_dir)}


@cli.command()
@click.option("--n-queries", type=int, default=None)
@click.option("--items-per-query", type=int, default=None)
@click.option("--catalog-size", type=int, default=None)
@click.option("--ranking-policy", type=str, default=None)
@click.option("--train-fraction", type=float, default=None)
@click.option("--price-sensitivity", type=float, default=None)
@click.option("--position-bias-strength", type=float, default=None)
@click.option("--order-effect-strength", type=float, default=None)
@click.option("--primacy-strength", type=float, default=None)
@click.option("--base-rate", type=float, default=None)
@click.option("--d", type=int, default=None)
@click.pass_context
def generate(ctx, **flags):
    """Generate synthetic train/test query logs."""
    cfg = _resolve_config(ctx.obj["config_path"], flags)
    seed = ctx.obj["seed"]
    behavior = config_from(BehaviorConfig, {**cfg, "seed": seed})
    catalog = generate_catalog(cfg["catalog_size"], cfg["d"], seed)
    dataset = generate_logs(
        behavior,
        catalog,
        n_queries=cfg["n_queries"],
        items_per_query=cfg["items_per_query"],
        ranking_policy=cfg["ranking_policy"],
        seed=seed,
        train_fraction=cfg["train_fraction"],
    )
    out = _out_dir(ctx)
    write_logs(dataset.train_records, out / "train.jsonl")
    write_logs(dataset.test_records, out / "test.jsonl")
    _write_manifest(out, "generate", seed, cfg, [])
    _echo(f"wrote {len(dataset.train_records)} train / {len(dataset.test_records)} test records")
    rate = dataset.acceptance_rate
    _echo(f"purchase-filter acceptance rate: {'n/a (no train records)' if rate is None else f'{rate:.4f}'}")


@cli.command("train")
@click.argument("variant", type=click.Choice(VARIANTS))
@click.argument("train_path", type=click.Path(exists=True))
@click.option("--epochs", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--learning-rate", type=float, default=None)
@click.option("--hidden-sizes", type=str, default=None, help="Comma-separated, default 50,50,30.")
@click.option("--lstm-hidden", type=int, default=None)
@click.pass_context
def train_cmd(ctx, variant, train_path, hidden_sizes, **flags):
    """Train a model variant on a JSONL training log."""
    if hidden_sizes is not None:
        flags["hidden_sizes"] = _parse_int_list("--hidden-sizes", hidden_sizes)
    cfg = _resolve_config(ctx.obj["config_path"], flags)
    seed = ctx.obj["seed"]
    dataset = _read_records(train_path, "training")
    cfg["d"] = dataset.records[0].candidate_set.feature_matrix.shape[1]
    params, curve = train(variant, dataset.records, config_from(ModelConfig, cfg), config_from(TrainConfig, cfg), seed)
    out = _out_dir(ctx)
    model_path = out / f"{variant}.model"
    save_model(params, model_path)
    _write_csv(out / f"{variant}_loss_curve.csv", enumerate(curve), ["epoch", "mean_loss"])
    _write_manifest(out, f"train_{variant}", seed, cfg, [Path(train_path)])
    _echo(f"wrote {model_path}; first-epoch loss {curve[0]:.6f}, final {curve[-1]:.6f}")


@cli.command()
@click.argument("model_path", type=click.Path(exists=True))
@click.argument("log_path", type=click.Path(exists=True))
@click.option("--rerank-size", type=int, default=None, help="Top-N prefix to re-order; default: full record.")
@click.option("--beam-size", type=int, default=None)
@click.option("--gamma", type=float, default=None)
@click.pass_context
def rerank(ctx, model_path, log_path, rerank_size, **flags):
    """Rerank the top-N prefix of each logged record with a trained model."""
    cfg = _resolve_config(ctx.obj["config_path"], flags)
    dataset = _read_records(log_path, "rerank")
    params = _load_model_for(model_path, dataset, log_path)
    out = _out_dir(ctx)
    rows = []

    def reranked():
        """Each record in its new order, one at a time, so the log is
        written as it is reranked; its GMV row is kept for the table."""
        for record in dataset.records:
            candidates = record.candidate_set
            n = len(record) if rerank_size is None else min(rerank_size, len(record))
            base = Ranking(tuple(range(len(record))))
            with _naming(model_path, record.query_id):
                ranking = rerank_top_n(
                    params, base, candidates, n, k=cfg["beam_size"], gamma=cfg["gamma"]
                )
                rows.append([record.query_id, expected_gmv(params, candidates, ranking)])
            yield record.take(ranking.order)

    write_logs(reranked(), out / "reranked.jsonl")
    _write_csv(out / "rerank_gmv.csv", rows, ["query_id", "expected_gmv"])
    _write_manifest(out, "rerank", ctx.obj["seed"], cfg, [Path(model_path), Path(log_path)])
    _echo(f"reranked {len(rows)} records -> {out / 'reranked.jsonl'}")


@cli.command()
@click.argument("test_path", type=click.Path(exists=True))
@click.argument("model_paths", type=click.Path(exists=True), nargs=-1, required=True)
@click.option("--attention-size", type=click.IntRange(min=1), default=20, show_default=True)
@click.pass_context
def evaluate(ctx, test_path, model_paths, attention_size):
    """Compute AUC/RIG for each model on a test log (plus attention matrix)."""
    dataset = _read_records(test_path, "test")
    models = [(model_path, _load_model_for(model_path, dataset, test_path)) for model_path in model_paths]
    out = _out_dir(ctx)
    extended = [extend_features(record.candidate_set) for record in dataset.records]
    labels = np.concatenate([record.labels for record in dataset.records])
    report: dict = {}
    matrices = {}
    # Every model is scored before any file is written, so a failing model
    # leaves no output behind.
    for model_path, params in models:
        predictions, matrix = logged_predictions(params, extended, attention_size)
        try:
            metrics = metric_report(predictions, labels)
        except NonFiniteError as exc:
            ends = np.cumsum([len(record) for record in dataset.records])
            first_nan = np.flatnonzero(np.isnan(predictions))[0]
            query_id = dataset.records[np.searchsorted(ends, first_nan, side="right")].query_id
            raise NonFiniteError(f"model {model_path}: {exc}, the first in query {query_id}") from None
        name = Path(model_path).stem
        report[name] = {
            "variant": params.variant,
            "auc": metrics.auc,
            "rig": metrics.rig,
            "n_samples": metrics.n_samples,
            "positive_rate": metrics.positive_rate,
        }
        if matrix is not None:
            matrices[name] = matrix.values
    for name, values in matrices.items():
        _write_csv(out / f"attention_matrix_{name}.csv", values)
    (out / "metrics.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    _write_manifest(out, "evaluate", ctx.obj["seed"], {"attention_size": attention_size},
                    [Path(test_path), *map(Path, model_paths)])
    _echo(json.dumps(report, indent=2, sort_keys=True))


@cli.command()
@click.argument("model_paths", type=click.Path(exists=True), nargs=-1, required=True)
@click.option("--sizes", type=str, default="10,20,40,80", show_default=True)
@click.option("--beams", type=str, default="5", show_default=True)
@click.option("--reps", type=click.IntRange(min=1), default=5, show_default=True)
@click.pass_context
def bench(ctx, model_paths, sizes, beams, reps):
    """Measure ranking latency across rerank sizes and beam sizes."""
    from .metrics import latency_bench

    rerank_sizes = _parse_int_list("--sizes", sizes)
    if len(set(rerank_sizes)) < 2:
        raise ValidationError(f"--sizes needs at least two distinct rerank sizes to fit a slope, got {sizes!r}")
    models = {Path(p).stem: load_model(p) for p in model_paths}
    profile = latency_bench(models, rerank_sizes, _parse_int_list("--beams", beams), reps, ctx.obj["seed"])
    out = _out_dir(ctx)
    header = ["model", "rerank_size", "beam_size", "median_seconds", "min_seconds"]
    _write_csv(out / "latency.csv", ([row[key] for key in header] for row in profile.rows), header)
    slopes = {"slope_vs_n": profile.slope_vs_n, "slope_vs_k": profile.slope_vs_k}
    (out / "latency_slopes.json").write_text(json.dumps(slopes, indent=2, sort_keys=True))
    _write_manifest(out, "bench", ctx.obj["seed"],
                    {"sizes": sizes, "beams": beams, "reps": reps}, list(map(Path, model_paths)))
    _echo(json.dumps(slopes, indent=2, sort_keys=True))


@cli.command("oracle-compare")
@click.argument("model_path", type=click.Path(exists=True))
@click.argument("log_path", type=click.Path(exists=True))
@click.option("--max-n", type=click.IntRange(min=1), default=6, show_default=True)
@click.option("--beams", type=str, default="1,2,5", show_default=True)
@click.pass_context
def oracle_compare(ctx, model_path, log_path, max_n, beams):
    """Compare beam-search GMV against the exhaustive oracle on small prefixes."""
    dataset = _read_records(log_path, "oracle-compare")
    params = _load_model_for(model_path, dataset, log_path)
    beam_sizes = _parse_int_list("--beams", beams)
    out = _out_dir(ctx)
    rows = []
    for record in dataset.records:
        subset = record.candidate_set.take(np.arange(min(max_n, len(record))))
        with _naming(model_path, record.query_id):
            oracle = exhaustive_oracle(params, subset).expected_gmv
            greedy = greedy_reference(params, subset).expected_gmv
            for k in beam_sizes:
                beam = beam_search(params, subset, k).expected_gmv
                rows.append([record.query_id, k, beam, oracle, greedy, beam / oracle])
    _write_csv(out / "oracle_compare.csv", rows,
               ["query_id", "beam_size", "beam_gmv", "oracle_gmv", "greedy_gmv", "ratio"])
    _write_manifest(out, "oracle_compare", ctx.obj["seed"],
                    {"max_n": max_n, "beams": beams}, [Path(model_path), Path(log_path)])
    worst = min(row[-1] for row in rows)
    _echo(f"{len(rows)} comparisons; worst beam/oracle ratio {worst:.6f}")


def main(argv=None) -> int:
    """Entry point with distinct exit codes per failure class."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show()
        return EXIT_VALIDATION
    except click.Abort:
        return EXIT_VALIDATION
    except TrainingDiverged as exc:
        _echo(f"error: {exc}", err=True)
        return EXIT_DIVERGED
    except (ModelFileError, LogFormatError, OSError) as exc:
        _echo(f"error: {exc}", err=True)
        return EXIT_IO
    except MirankError as exc:
        _echo(f"error: {exc}", err=True)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
