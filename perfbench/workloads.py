"""The four benchmark workloads: inputs from simgen, one timed operation, and
the checks on its output.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Inputs are generated from the run seed
only, with the behaviour effects the paper studies switched on, and models
use seeded ``init_model`` weights (the cost does not depend on the weights).

Each workload has ``work_items`` distinct inputs; operation ``i`` processes
input ``i % work_items``. Each output is reduced to a fingerprint, and the
fingerprints of repeated inputs must match the first one, so a run also
checks that the program is deterministic.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mirank.cli
import mirank.models
import mirank.persistence
import mirank.ranker
import mirank.simgen
import speed
from mirank.configs import ModelConfig, TrainConfig
from mirank.core import Ranking

BEHAVIOR = {"price_sensitivity": 2.0, "order_effect_strength": 2.0, "base_rate": 0.2}
MODEL = ModelConfig(d=23)
CATALOG_SIZE = 500
GMV_RTOL = 1e-9
ROW_SUM_TOL = 1e-9
# Rerank queries whose beam-search GMV is recomputed from scratch.
SAMPLE_QUERIES = 8
_NP_FLOAT64 = re.compile(r"np\.float64\((.*)\)")


def _seed(seed: int, offset: int) -> int:
    return (seed + offset) % 2**64


def generate_records(seed: int, n_records: int, n_items: int, split: str, catalog_size: int):
    """``n_records`` simulated records of ``n_items`` items from one split."""
    behavior = mirank.simgen.BehaviorConfig(**BEHAVIOR, seed=_seed(seed, 0))
    catalog = mirank.simgen.generate_catalog(catalog_size, MODEL.d, _seed(seed, 1))
    # train_fraction=0 is not accepted by generate_logs, so test records come
    # from an even split.
    train_fraction = 1.0 if split == "train" else 0.5
    n_queries = n_records if split == "train" else 2 * n_records
    data = mirank.simgen.generate_logs(
        behavior, catalog, n_queries, n_items, seed=_seed(seed, 2), train_fraction=train_fraction
    )
    return data.train_records if split == "train" else data.test_records


def write_and_read(records, path: Path):
    mirank.persistence.write_logs(records, path)
    return mirank.persistence.read_logs(path).records


def save_and_load(params, path: Path):
    mirank.persistence.save_model(params, path)
    return mirank.persistence.load_model(path)


def _csv_float(text: str) -> float:
    """A float cell as the CLI writes it: ``repr`` of a float or, under
    numpy 2, of a ``np.float64`` (``np.float64(0.25)``)."""
    match = _NP_FLOAT64.fullmatch(text)
    return float(match.group(1) if match else text)


def _all_finite(arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


@dataclass(frozen=True)
class Checked:
    """Outcome of checking one operation's output."""

    ok: bool
    fingerprint: bytes


class Rerank:
    """``rerank_top_n`` over each full test record with a recurrent model."""

    def __init__(self, name, variant, n_items, beam, n_records, calibration, catalog_size=CATALOG_SIZE):
        self.name = name
        self.calibration = calibration
        self.variant = variant
        self.n_items = n_items
        self.beam = beam
        self.work_items = n_records
        self.trace_ops = n_records
        self.catalog_size = catalog_size

    def setup(self, workdir: Path, seed: int):
        records = generate_records(seed, self.work_items, self.n_items, "test", self.catalog_size)
        records = write_and_read(records, workdir / "test.jsonl")
        params = mirank.models.init_model(self.variant, MODEL, _seed(seed, 3))
        params = save_and_load(params, workdir / f"{self.variant}.model")
        candidates = [record.candidate_set for record in records]
        return {"params": params, "candidates": candidates}

    def setup_items(self, inputs) -> int:
        return sum(len(c) for c in inputs["candidates"])

    def op_items(self, inputs, index: int) -> int:
        return self.n_items

    def op(self, inputs, index: int):
        candidates = inputs["candidates"][index % self.work_items]
        base = Ranking(tuple(range(len(candidates))))
        return mirank.ranker.rerank_top_n(inputs["params"], base, candidates, len(candidates), k=self.beam)

    def check(self, inputs, index: int, output) -> Checked:
        order = tuple(output.order)
        ok = sorted(order) == list(range(self.n_items))
        return Checked(ok, json.dumps(order).encode())

    def sample_checks(self, inputs, first_outputs: dict):
        """Beam-search GMV against a from-scratch recomputation, and the beam
        order against the timed ``rerank_top_n`` order, on a fixed sample."""
        params = inputs["params"]
        outcomes = []
        for index in sorted(first_outputs)[:SAMPLE_QUERIES]:
            candidates = inputs["candidates"][index]
            result = mirank.ranker.beam_search(params, candidates, self.beam)
            recomputed = mirank.ranker.expected_gmv(params, candidates, result.ranking)
            same_gmv = abs(result.expected_gmv - recomputed) <= GMV_RTOL * abs(recomputed)
            same_order = tuple(result.ranking.order) == tuple(first_outputs[index].order)
            outcomes.append(same_gmv and same_order)
        return outcomes

    def info(self, inputs, first_outputs: dict) -> dict:
        params = inputs["params"]
        gmvs = [
            mirank.ranker.expected_gmv(params, inputs["candidates"][index], Ranking(tuple(output.order)))
            for index, output in first_outputs.items()
        ]
        return {"gmv_per_query": (float(np.mean(gmvs)), "price_units")}


class TrainAttention:
    """Repeated one-epoch ``train("mirnn_attention", ...)`` calls."""

    name = "train_attention"
    variant = "mirnn_attention"
    work_items = 1
    calibration = speed.Calibration(speed.numpy_kernel)

    def __init__(self, n_records, n_items, trace_ops, catalog_size=CATALOG_SIZE):
        self.n_records = n_records
        self.n_items = n_items
        self.trace_ops = trace_ops
        self.catalog_size = catalog_size
        self.config = TrainConfig(epochs=1, sequence_batch_size=32)

    def setup(self, workdir: Path, seed: int):
        records = generate_records(seed, self.n_records, self.n_items, "train", self.catalog_size)
        return {"records": write_and_read(records, workdir / "train.jsonl"), "seed": _seed(seed, 4)}

    def setup_items(self, inputs) -> int:
        return sum(len(r) for r in inputs["records"])

    def op_items(self, inputs, index: int) -> int:
        return self.config.epochs * self.setup_items(inputs)

    def op(self, inputs, index: int):
        # ``mirank.nn.train`` as an attribute is the re-exported function.
        train = sys.modules["mirank.nn.train"].train
        return train(self.variant, inputs["records"], MODEL, self.config, inputs["seed"])

    def check(self, inputs, index: int, output) -> Checked:
        params, curve = output
        blocks = [params.blocks[name] for name in sorted(params.blocks)]
        digest = hashlib.sha256(np.asarray(curve, dtype="<f8").tobytes())
        for block in blocks:
            digest.update(np.ascontiguousarray(block, dtype="<f8").tobytes())
        ok = len(curve) == self.config.epochs and _all_finite([np.asarray(curve), *blocks])
        return Checked(ok, digest.digest())

    def sample_checks(self, inputs, first_outputs: dict):
        return []

    def info(self, inputs, first_outputs: dict) -> dict:
        _, curve = first_outputs[0]
        return {"train_loss": (float(curve[-1]), "nats/item")}


class Evaluate:
    """In-process ``mirank evaluate`` of a midnn and a mirnn_attention model."""

    name = "evaluate"
    work_items = 1
    calibration = speed.Calibration(speed.interpreter_kernel)
    variants = ("midnn", "mirnn_attention")

    def __init__(self, n_records, n_items, trace_ops, catalog_size=CATALOG_SIZE):
        self.n_records = n_records
        self.n_items = n_items
        self.trace_ops = trace_ops
        self.catalog_size = catalog_size

    def setup(self, workdir: Path, seed: int):
        test_path = workdir / "test.jsonl"
        records = generate_records(seed, self.n_records, self.n_items, "test", self.catalog_size)
        write_and_read(records, test_path)
        model_paths = []
        for offset, variant in enumerate(self.variants, start=5):
            path = workdir / f"{variant}.model"
            save_and_load(mirank.models.init_model(variant, MODEL, _seed(seed, offset)), path)
            model_paths.append(str(path))
        out = workdir / "evaluate"
        argv = ["--output-dir", str(out), "evaluate", str(test_path), *model_paths,
                "--attention-size", str(self.n_items)]
        return {"argv": argv, "out": out, "items": len(records) * self.n_items}

    def setup_items(self, inputs) -> int:
        return inputs["items"]

    def op_items(self, inputs, index: int) -> int:
        return inputs["items"] * len(self.variants)

    def op(self, inputs, index: int):
        with contextlib.redirect_stdout(io.StringIO()):
            return mirank.cli.main(inputs["argv"])

    def check(self, inputs, index: int, output) -> Checked:
        out = inputs["out"]
        try:
            metrics_bytes = (out / "metrics.json").read_bytes()
            matrix_bytes = (out / "attention_matrix_mirnn_attention.csv").read_bytes()
        except OSError:
            return Checked(False, b"")
        report = json.loads(metrics_bytes)
        finite = len(report) == len(self.variants) and all(
            math.isfinite(entry["auc"]) and math.isfinite(entry["rig"]) for entry in report.values()
        )
        rows = [[_csv_float(v) for v in row] for row in csv.reader(io.StringIO(matrix_bytes.decode()))]
        rows_sum_to_one = len(rows) == self.n_items and all(
            abs(math.fsum(row) - 1.0) <= ROW_SUM_TOL for row in rows[1:]
        )
        return Checked(output == 0 and finite and rows_sum_to_one, metrics_bytes + matrix_bytes)

    def sample_checks(self, inputs, first_outputs: dict):
        return []

    def info(self, inputs, first_outputs: dict) -> dict:
        return {}


def make_workloads(tiny: bool = False) -> dict:
    """Workloads at benchmark size, or at a size that runs in about a second."""
    # Attention scoring is numpy-bound; at k=20 over 20 items the Python
    # top-k pool in beam_search is a large share as well.
    numpy_bound = speed.Calibration(speed.numpy_kernel)
    mixed = speed.Calibration(speed.interpreter_kernel, speed.numpy_kernel)
    if tiny:
        workloads = [
            Rerank("rerank_attention", "mirnn_attention", 10, 2, 3, numpy_bound, catalog_size=60),
            Rerank("rerank_lstm", "mirnn", 8, 4, 3, mixed, catalog_size=60),
            TrainAttention(n_records=40, n_items=6, trace_ops=2, catalog_size=60),
            Evaluate(n_records=6, n_items=6, trace_ops=2, catalog_size=60),
        ]
    else:
        workloads = [
            Rerank("rerank_attention", "mirnn_attention", 50, 5, 75, numpy_bound),
            Rerank("rerank_lstm", "mirnn", 20, 20, 160, mixed),
            TrainAttention(n_records=320, n_items=20, trace_ops=24),
            Evaluate(n_records=30, n_items=20, trace_ops=32),
        ]
    return {w.name: w for w in workloads}
