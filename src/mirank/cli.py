"""Command-line entry point for reproducible generate / train / rerank /
evaluate / bench / oracle-compare runs.

Configuration layers as defaults < config file < flags; every run writes a
manifest with the resolved configuration, the seed, and checksums of its
input files, so each experiment grid cell is auditable.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from .configs import ATTENTION_SIZE, BEAM_SIZE, VARIANT_TRAITS, VARIANTS, ModelConfig, TrainConfig, coerce, config_from
from .core import MirankError, NonFiniteError, Ranking, ValidationError, naming
# evaluate scores through logged_predictions alone; perfbench/tracer.py still wraps
# extend_features, attention_diagnostic and the two scorers below here, by these names.
from .features import extend_features  # noqa: F401
from .metrics import attention_diagnostic, latency_bench, logged_predictions, metric_report  # noqa: F401
from .models import item_probabilities as score_midnn_batch, sequence_probabilities  # noqa: F401
from .nn.train import TrainingDiverged, train
from .persistence import LogFormatError, ModelFileError, _atomic_write, _sha256, load_model, read_logs, save_model, write_logs
from .ranker import beam_search, exhaustive_oracle, expected_gmv, greedy_reference, rerank_top_n
from .simgen import ITEMS_PER_QUERY, TRAIN_FRACTION, BehaviorConfig, generate_catalog, generate_logs

EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_DIVERGED = 4

DEFAULTS: dict = {
    **asdict(ModelConfig()),
    **asdict(TrainConfig()),
    "beam_size": BEAM_SIZE,
    "items_per_query": ITEMS_PER_QUERY,
    "n_queries": 1000,
    "catalog_size": 500,
    "train_fraction": TRAIN_FRACTION,
    # The seed comes from --seed, not from the config.
    **{key: value for key, value in asdict(BehaviorConfig()).items() if key != "seed"},
}


def _read_config(config_path: str) -> dict:
    """The YAML config file at ``config_path``, each value converted to the type of its
    default; a file that does not parse, or is not a mapping of known keys, is a ValidationError.
    yaml is imported here, so a run without --config never loads it."""
    import yaml

    try:
        loaded = yaml.safe_load(Path(config_path).read_text(encoding="utf-8")) or {}
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        reason = " ".join(str(exc).split())  # PyYAML spreads its message over lines
        raise ValidationError(f"config file {config_path} does not parse: {reason}") from None
    if not isinstance(loaded, dict):
        raise ValidationError(f"config file {config_path} must hold a mapping")
    unknown = set(loaded) - set(DEFAULTS)
    if unknown:
        raise ValidationError(f"unknown config keys in {config_path}: {sorted(unknown, key=str)}")
    return {key: coerce(key, value, DEFAULTS[key]) for key, value in loaded.items()}


def _resolve_config(ctx, flags: dict) -> dict:
    """The defaults, overridden by the config file, overridden by the flags given."""
    return {**DEFAULTS, **ctx.obj["config"], **{key: value for key, value in flags.items() if value is not None}}


def _by_stem(model_paths) -> dict[str, str]:
    """Each model path by its file stem, its name in the outputs; a repeated stem is a ValidationError."""
    named: dict[str, str] = {}
    for path in model_paths:
        stem = Path(path).stem
        if stem in named:
            raise ValidationError(f"models {named[stem]} and {path} share the name {stem!r}; rename one")
        named[stem] = path
    return named


def _write_csv(path: Path, rows, header=None) -> None:
    """Write ``rows`` as a CSV table under an optional header row; csv
    writes each float in its shortest round-trip form. The table is built in
    memory first, so rows that raise leave ``path`` as it was."""
    text = io.StringIO()
    writer = csv.writer(text)
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, (text.getvalue().encode("utf-8"),))


def _write_json(path: Path, obj) -> str:
    """Write ``obj`` as indented JSON with sorted keys; returns the text."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    _atomic_write(path, (text.encode("utf-8"),))
    return text


def _write_manifest(out_dir: Path, command: str, seed: int, cfg: dict, inputs: list) -> None:
    checksums = {str(p): _sha256(p) for p in inputs}
    _write_json(out_dir / f"manifest_{command}.json",
                {"command": command, "seed": seed, "resolved_config": cfg, "inputs": checksums})


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
        values = [int(part) for part in text.split(",")]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise ValidationError(f"{flag} takes a comma-separated list of positive integers, got {text!r}")
    return values


def _read_records(path, role: str):
    """The Dataset of the JSONL log at ``path``; a log with no records is a
    ValidationError, whichever command reads it."""
    dataset = read_logs(path)
    if not dataset.records:
        raise ValidationError(f"{role} log {path} holds no records")
    return dataset


@click.group(no_args_is_help=False)  # no command is a one-line rejection too, not a help block
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True, help="64-bit unsigned seed.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="YAML/JSON config file.")
@click.option("--output-dir", type=click.Path(), default=".", show_default=True)
@click.pass_context
def cli(ctx, seed, config_path, output_dir):
    """Mutual-influence-aware reranking toolkit."""
    ctx.obj = {"seed": seed, "config": _read_config(config_path) if config_path else {}, "out": Path(output_dir)}


@cli.command()
@click.option("--n-queries", type=int, default=None)
@click.option("--items-per-query", type=int, default=None)
@click.option("--catalog-size", type=int, default=None)
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
    cfg = _resolve_config(ctx, flags)
    seed = ctx.obj["seed"]
    behavior = config_from(BehaviorConfig, {**cfg, "seed": seed})
    catalog = generate_catalog(cfg["catalog_size"], cfg["d"], seed)
    dataset = generate_logs(
        behavior,
        catalog,
        n_queries=cfg["n_queries"],
        items_per_query=cfg["items_per_query"],
        seed=seed,
        train_fraction=cfg["train_fraction"],
    )
    out = ctx.obj["out"]
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
@click.option("--batch-size", type=int, default=None, help="Feed-forward variants only.")
@click.option("--learning-rate", type=float, default=None)
@click.option("--hidden-sizes", help=f"Comma-separated, default {','.join(map(str, ModelConfig.hidden_sizes))}.")
@click.option("--lstm-hidden", type=int, default=None)
@click.pass_context
def train_cmd(ctx, variant, train_path, hidden_sizes, **flags):
    """Train a model variant on a JSONL training log."""
    if flags["batch_size"] is not None and VARIANT_TRAITS[variant].recurrent:
        raise ValidationError(f"--batch-size sets the feed-forward batch; {variant} reads the sequence_batch_size config key")
    if hidden_sizes is not None:
        flags["hidden_sizes"] = _parse_int_list("--hidden-sizes", hidden_sizes)
    cfg = _resolve_config(ctx, flags)
    seed = ctx.obj["seed"]
    dataset = _read_records(train_path, "training")
    cfg["d"] = dataset.records[0].candidate_set.feature_matrix.shape[1]
    params, curve = train(variant, dataset.records, config_from(ModelConfig, cfg), config_from(TrainConfig, cfg), seed)
    out = ctx.obj["out"]
    model_path = out / f"{variant}.model"
    save_model(params, model_path)
    _write_csv(out / f"{variant}_loss_curve.csv", enumerate(curve), ["epoch", "mean_loss"])
    _write_manifest(out, f"train_{variant}", seed, cfg, [Path(train_path)])
    _echo(f"wrote {model_path}; first-epoch loss {curve[0]:.6f}, final {curve[-1]:.6f}")


@cli.command()
@click.argument("model_path", type=click.Path(exists=True))
@click.argument("log_path", type=click.Path(exists=True))
@click.option("--rerank-size", type=click.IntRange(min=1), default=None, help="Top-N prefix to re-order; default: full record.")
@click.option("--beam-size", type=int, default=None)
@click.pass_context
def rerank(ctx, model_path, log_path, rerank_size, **flags):
    """Rerank the top-N prefix of each logged record with a trained model."""
    cfg = _resolve_config(ctx, flags)
    dataset = _read_records(log_path, "rerank")
    params = load_model(model_path)
    params.config.require_d(dataset.records)
    # The feed-forward models ignore the beam size.
    if params.traits.recurrent and cfg["beam_size"] < 1:
        raise ValidationError(f"beam_size (--beam-size or config key) must be >= 1, got {cfg['beam_size']}")
    out = ctx.obj["out"]
    rows = []

    def reranked():
        """Each record in its new order, one at a time, so the log is
        written as it is reranked (and the directory made only once the
        first record is); its GMV row is kept for the table."""
        for record in dataset.records:
            candidates = record.candidate_set
            n = len(record) if rerank_size is None else min(rerank_size, len(record))
            base = Ranking(tuple(range(len(record))))
            with naming(f"model {model_path}, query {record.query_id}"):
                ranking = rerank_top_n(params, base, candidates, n, k=cfg["beam_size"])
                rows.append([record.query_id, expected_gmv(params, candidates, ranking)])
            yield record.take(ranking.order)

    write_logs(reranked(), out / "reranked.jsonl")
    _write_csv(out / "rerank_gmv.csv", rows, ["query_id", "expected_gmv"])
    _write_manifest(out, "rerank", ctx.obj["seed"], cfg, [Path(model_path), Path(log_path)])
    _echo(f"reranked {len(rows)} records -> {out / 'reranked.jsonl'}")


@cli.command()
@click.argument("test_path", type=click.Path(exists=True))
@click.argument("model_paths", type=click.Path(exists=True), nargs=-1, required=True)
@click.option("--attention-size", type=click.IntRange(min=1), default=ATTENTION_SIZE, show_default=True)
@click.pass_context
def evaluate(ctx, test_path, model_paths, attention_size):
    """Compute AUC/RIG for each model on a test log (plus attention matrix)."""
    dataset = _read_records(test_path, "test")
    models = {name: (path, load_model(path)) for name, path in _by_stem(model_paths).items()}
    labels = np.concatenate([record.labels for record in dataset.records])
    report: dict = {}
    matrices = {}
    for name, (model_path, params) in models.items():
        predictions, matrix = logged_predictions(params, dataset.records, attention_size)
        try:
            metrics = metric_report(predictions, labels)
        except NonFiniteError:
            ends = np.cumsum([len(record) for record in dataset.records])
            first_nan = np.flatnonzero(np.isnan(predictions))[0]
            query_id = dataset.records[np.searchsorted(ends, first_nan, side="right")].query_id
            with naming(f"model {model_path}, query {query_id}"):
                raise
        report[name] = {"variant": params.variant, **asdict(metrics)}
        if matrix is not None:
            matrices[name] = matrix.values
    out = ctx.obj["out"]
    for name, values in matrices.items():
        _write_csv(out / f"attention_matrix_{name}.csv", values)
    text = _write_json(out / "metrics.json", report)
    _write_manifest(out, "evaluate", ctx.obj["seed"], {"attention_size": attention_size},
                    [Path(test_path), *map(Path, model_paths)])
    _echo(text)


@cli.command()
@click.argument("model_paths", type=click.Path(exists=True), nargs=-1, required=True)
@click.option("--sizes", type=str, default="10,20,40,80", show_default=True)
@click.option("--beams", type=str, default=str(BEAM_SIZE), show_default=True)
@click.option("--reps", type=click.IntRange(min=1), default=5, show_default=True)
@click.pass_context
def bench(ctx, model_paths, sizes, beams, reps):
    """Measure ranking latency across rerank sizes and beam sizes."""
    rerank_sizes = _parse_int_list("--sizes", sizes)
    if len(set(rerank_sizes)) < 2:
        raise ValidationError(f"--sizes needs at least two distinct rerank sizes to fit a slope, got {sizes!r}")
    models = {name: load_model(path) for name, path in _by_stem(model_paths).items()}
    profile = latency_bench(models, rerank_sizes, _parse_int_list("--beams", beams), reps, ctx.obj["seed"])
    out = ctx.obj["out"]
    header = ["model", "rerank_size", "beam_size", "median_seconds", "min_seconds"]
    _write_csv(out / "latency.csv", ([row[key] for key in header] for row in profile.rows), header)
    slopes = {"slope_vs_n": profile.slope_vs_n, "slope_vs_k": profile.slope_vs_k}
    text = _write_json(out / "latency_slopes.json", slopes)
    _write_manifest(out, "bench", ctx.obj["seed"],
                    {"sizes": sizes, "beams": beams, "reps": reps}, list(map(Path, model_paths)))
    _echo(text)


@cli.command("oracle-compare")
@click.argument("model_path", type=click.Path(exists=True))
@click.argument("log_path", type=click.Path(exists=True))
@click.option("--max-n", type=click.IntRange(min=1), default=6, show_default=True)
@click.option("--beams", type=str, default="1,2,5", show_default=True)
@click.pass_context
def oracle_compare(ctx, model_path, log_path, max_n, beams):
    """Compare beam-search GMV against the exhaustive oracle on small prefixes."""
    dataset = _read_records(log_path, "oracle-compare")
    params = load_model(model_path)
    params.config.require_d(dataset.records)
    params.require("oracle-compare", "recurrent")
    beam_sizes = _parse_int_list("--beams", beams)
    rows = []
    for record in dataset.records:
        subset = record.candidate_set.take(np.arange(min(max_n, len(record))))
        with naming(f"model {model_path}, query {record.query_id}"):
            oracle = exhaustive_oracle(params, subset).expected_gmv
            greedy = greedy_reference(params, subset).expected_gmv
            for k in beam_sizes:
                beam = beam_search(params, subset, k).expected_gmv
                rows.append([record.query_id, k, beam, oracle, greedy, beam / oracle])
    out = ctx.obj["out"]
    _write_csv(out / "oracle_compare.csv", rows,
               ["query_id", "beam_size", "beam_gmv", "oracle_gmv", "greedy_gmv", "ratio"])
    _write_manifest(out, "oracle_compare", ctx.obj["seed"],
                    {"max_n": max_n, "beams": beams}, [Path(model_path), Path(log_path)])
    worst = min(row[-1] for row in rows)
    _echo(f"{len(rows)} comparisons; worst beam/oracle ratio {worst:.6f}")


def main(argv=None) -> int:
    """Entry point with distinct exit codes per failure class."""
    try:
        # A non-finite value ends in NonFiniteError or TrainingDiverged and one
        # error line, so numpy's overflow warnings would only add noise to it.
        with np.errstate(over="ignore", invalid="ignore"):
            cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        _echo(f"error: {exc.format_message()}", err=True)
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
