"""Command-line entry point for reproducible generate / train / rerank /
evaluate / bench / oracle-compare runs.

Configuration layers as defaults < config file < flags; every run writes a
manifest with the resolved configuration, the seed, and checksums of its
input files, so each experiment grid cell is auditable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

import click
import numpy as np
import yaml

from .configs import ModelConfig, TrainConfig
from .core import MirankError, Ranking, ValidationError
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
    "d": 23,
    "hidden_sizes": [50, 50, 30],
    "lstm_hidden": 50,
    "attn_size": 10,
    "pos_size": 5,
    "max_positions": 100,
    "epochs": 5,
    "batch_size": 256,
    "sequence_batch_size": 32,
    "learning_rate": 1e-3,
    "gamma": 1.0,
    "beam_size": 5,
    "items_per_query": 50,
    "n_queries": 1000,
    "catalog_size": 500,
    "train_fraction": 0.8,
    "ranking_policy": "random",
    "price_sensitivity": 0.0,
    "position_bias_strength": 0.0,
    "order_effect_strength": 0.0,
    "primacy_strength": 0.0,
    "base_rate": 0.1,
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
    return resolved


def _model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(
        d=int(cfg["d"]),
        hidden_sizes=tuple(int(s) for s in cfg["hidden_sizes"]),
        lstm_hidden=int(cfg["lstm_hidden"]),
        attn_size=int(cfg["attn_size"]),
        pos_size=int(cfg["pos_size"]),
        max_positions=int(cfg["max_positions"]),
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, seed: int, cfg: dict, inputs: list) -> None:
    manifest = {
        "command": command,
        "seed": seed,
        "resolved_config": cfg,
        "inputs": {str(p): _sha256(p) for p in inputs},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"manifest_{command}.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _echo(message: str, err: bool = False) -> None:
    """click.echo to the current sys.stdout (or sys.stderr). Left to pick the
    stream itself, click caches each one in a map that keeps it alive, so
    every stream an in-process caller swaps in would leak."""
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


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
    behavior = BehaviorConfig(
        price_sensitivity=cfg["price_sensitivity"],
        position_bias_strength=cfg["position_bias_strength"],
        order_effect_strength=cfg["order_effect_strength"],
        primacy_strength=cfg["primacy_strength"],
        base_rate=cfg["base_rate"],
        seed=seed,
    )
    catalog = generate_catalog(int(cfg["catalog_size"]), int(cfg["d"]), seed)
    dataset = generate_logs(
        behavior,
        catalog,
        n_queries=int(cfg["n_queries"]),
        items_per_query=int(cfg["items_per_query"]),
        ranking_policy=cfg["ranking_policy"],
        seed=seed,
        train_fraction=float(cfg["train_fraction"]),
    )
    out = ctx.obj["out"]
    out.mkdir(parents=True, exist_ok=True)
    write_logs(dataset.train_records, out / "train.jsonl")
    write_logs(dataset.test_records, out / "test.jsonl")
    _write_manifest(out, "generate", seed, cfg, [])
    _echo(f"wrote {len(dataset.train_records)} train / {len(dataset.test_records)} test records")
    rate = dataset.acceptance_rate
    _echo(f"purchase-filter acceptance rate: {'n/a (no train records)' if rate is None else f'{rate:.4f}'}")


@cli.command("train")
@click.argument("variant", type=click.Choice(["baseline", "midnn", "mirnn", "mirnn_attention"]))
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
        flags["hidden_sizes"] = _parse_int_list(hidden_sizes)
    cfg = _resolve_config(ctx.obj["config_path"], flags)
    seed = ctx.obj["seed"]
    dataset = read_logs(train_path, tag="train")
    if dataset.records and dataset.records[0].displayed:
        cfg["d"] = dataset.records[0].displayed[0].local_features.shape[0]
    train_config = TrainConfig(
        epochs=int(cfg["epochs"]),
        batch_size=int(cfg["batch_size"]),
        sequence_batch_size=int(cfg["sequence_batch_size"]),
        learning_rate=float(cfg["learning_rate"]),
    )
    params, curve = train(variant, dataset.records, _model_config(cfg), train_config, seed)
    out = ctx.obj["out"]
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / f"{variant}.model"
    save_model(params, model_path)
    with open(out / f"{variant}_loss_curve.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, loss in enumerate(curve):
            writer.writerow([epoch, repr(loss)])
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
    params = load_model(model_path)
    dataset = read_logs(log_path)
    out = ctx.obj["out"]
    out.mkdir(parents=True, exist_ok=True)
    reranked = []
    rows = []
    for record in dataset.records:
        candidates = record.candidate_set
        n = len(record) if rerank_size is None else min(rerank_size, len(record))
        base = Ranking(tuple(range(len(record))))
        ranking = rerank_top_n(
            params, base, candidates, n, k=int(cfg["beam_size"]), gamma=float(cfg["gamma"])
        )
        reranked.append(
            type(record)(
                query_id=record.query_id,
                displayed=tuple(record.displayed[i] for i in ranking.order),
                labels=tuple(record.labels[i] for i in ranking.order),
                ground_truth_probs=(
                    tuple(record.ground_truth_probs[i] for i in ranking.order)
                    if record.ground_truth_probs is not None
                    else None
                ),
            )
        )
        rows.append([record.query_id, repr(expected_gmv(params, candidates, ranking))])
    write_logs(reranked, out / "reranked.jsonl")
    with open(out / "rerank_gmv.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["query_id", "expected_gmv"])
        writer.writerows(rows)
    _write_manifest(out, "rerank", ctx.obj["seed"], cfg, [Path(model_path), Path(log_path)])
    _echo(f"reranked {len(reranked)} records -> {out / 'reranked.jsonl'}")


@cli.command()
@click.argument("test_path", type=click.Path(exists=True))
@click.argument("model_paths", type=click.Path(exists=True), nargs=-1, required=True)
@click.option("--attention-size", type=int, default=20, show_default=True)
@click.pass_context
def evaluate(ctx, test_path, model_paths, attention_size):
    """Compute AUC/RIG for each model on a test log (plus attention matrix)."""
    dataset = read_logs(test_path, tag="test")
    if not dataset.records:
        raise ValidationError(f"test log {test_path} holds no records")
    out = ctx.obj["out"]
    out.mkdir(parents=True, exist_ok=True)
    extended = [extend_features(record.candidate_set) for record in dataset.records]
    labels = np.concatenate([np.array(record.labels) for record in dataset.records])
    report: dict = {}
    for model_path in model_paths:
        params = load_model(model_path)
        predictions, matrix = logged_predictions(params, extended, attention_size)
        metrics = metric_report(predictions, labels)
        name = Path(model_path).stem
        report[name] = {
            "variant": params.variant,
            "auc": metrics.auc,
            "rig": metrics.rig,
            "n_samples": metrics.n_samples,
            "positive_rate": metrics.positive_rate,
        }
        if matrix is not None:
            with open(out / f"attention_matrix_{name}.csv", "w", newline="") as handle:
                csv.writer(handle).writerows([repr(float(v)) for v in row] for row in matrix.values)
    (out / "metrics.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    _write_manifest(out, "evaluate", ctx.obj["seed"], {"attention_size": attention_size},
                    [Path(test_path), *map(Path, model_paths)])
    _echo(json.dumps(report, indent=2, sort_keys=True))


@cli.command()
@click.argument("model_paths", type=click.Path(exists=True), nargs=-1, required=True)
@click.option("--sizes", type=str, default="10,20,40,80", show_default=True)
@click.option("--beams", type=str, default="5", show_default=True)
@click.option("--reps", type=int, default=5, show_default=True)
@click.pass_context
def bench(ctx, model_paths, sizes, beams, reps):
    """Measure ranking latency across rerank sizes and beam sizes."""
    from .metrics import latency_bench

    models = {Path(p).stem: load_model(p) for p in model_paths}
    profile = latency_bench(
        models, _parse_int_list(sizes), _parse_int_list(beams), reps, ctx.obj["seed"]
    )
    out = ctx.obj["out"]
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "latency.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["model", "rerank_size", "beam_size", "median_seconds"])
        for row in profile.rows:
            writer.writerow([row["model"], row["rerank_size"], row["beam_size"], repr(row["median_seconds"])])
    slopes = {"slope_vs_n": profile.slope_vs_n, "slope_vs_k": profile.slope_vs_k}
    (out / "latency_slopes.json").write_text(json.dumps(slopes, indent=2, sort_keys=True))
    _write_manifest(out, "bench", ctx.obj["seed"],
                    {"sizes": sizes, "beams": beams, "reps": reps}, list(map(Path, model_paths)))
    _echo(json.dumps(slopes, indent=2, sort_keys=True))


@cli.command("oracle-compare")
@click.argument("model_path", type=click.Path(exists=True))
@click.argument("log_path", type=click.Path(exists=True))
@click.option("--max-n", type=int, default=6, show_default=True)
@click.option("--beams", type=str, default="1,2,5", show_default=True)
@click.pass_context
def oracle_compare(ctx, model_path, log_path, max_n, beams):
    """Compare beam-search GMV against the exhaustive oracle on small prefixes."""
    params = load_model(model_path)
    dataset = read_logs(log_path)
    beam_sizes = _parse_int_list(beams)
    out = ctx.obj["out"]
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    from .core import CandidateSet

    for record in dataset.records:
        subset = CandidateSet(record.displayed[:max_n])
        oracle = exhaustive_oracle(params, subset)
        greedy = greedy_reference(params, subset)
        for k in beam_sizes:
            beam = beam_search(params, subset, k)
            rows.append(
                {
                    "query_id": record.query_id,
                    "beam_size": k,
                    "beam_gmv": beam.expected_gmv,
                    "oracle_gmv": oracle.expected_gmv,
                    "greedy_gmv": greedy.expected_gmv,
                    "ratio": beam.expected_gmv / oracle.expected_gmv,
                }
            )
    with open(out / "oracle_compare.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["query_id", "beam_size", "beam_gmv", "oracle_gmv", "greedy_gmv", "ratio"])
        for row in rows:
            writer.writerow(
                [row["query_id"], row["beam_size"], repr(row["beam_gmv"]),
                 repr(row["oracle_gmv"]), repr(row["greedy_gmv"]), repr(row["ratio"])]
            )
    _write_manifest(out, "oracle_compare", ctx.obj["seed"],
                    {"max_n": max_n, "beams": beams}, [Path(model_path), Path(log_path)])
    worst = min(row["ratio"] for row in rows) if rows else float("nan")
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
