"""Timed runs of one workload: end-to-end metrics untraced, per-layer metrics traced.

The timed span of an operation is the call into mirank alone; output checks
and the speed-calibration kernel run outside it. Every time reported is
scaled to nominal machine speed (see ``speed``); the wall-clock values are
printed beside them. Every operation and every sample check counts as
attempted, and as failed if it raised or its output failed a check.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import speed
from tracer import Tracer, counted_properties, setup_patches, timed_phase_patches

SETUP_REPS = 5
# Building inputs is mostly JSON and Python loops.
SETUP_CALIBRATION = speed.Calibration(speed.interpreter_kernel)
# Failures whose details are written to standard error; the rest are only counted.
REPORTED_FAILURES = 3

# Layers whose self time the traced run reports, in output order.
SELF_TIME_LAYERS = (
    "models.advance_entries",
    "ranker.beam_search",
    "ranker.rerank_top_n",
    "nn.recurrent.sequence_forward",
    "nn.recurrent.sequence_backward",
    "nn.lstm.lstm_step_batch",
    "nn.lstm.lstm_step_backward",
    "nn.optim.adam_step",
    "nn.train.train",
    "models.sequence_probabilities",
    "models.score_midnn_batch",
    "nn.mlp.mlp_forward_batch",
    "features.extend_features",
    "metrics.attention_diagnostic",
    "metrics.metric_report",
    "persistence.read_logs",
    "cli.evaluate",
)
SETUP_LAYERS = (
    "simgen.generate_logs",
    "persistence.write_logs",
    "persistence.save_model",
    "persistence.load_model",
)
COUNTS = (
    "models.advance_entries.calls",
    "models.advance_entries.pairs",
    "models.advance_entries.attn_scores",
    "ranker.beam_search.pool_entries",
    "nn.recurrent.sequence_forward.calls",
    "nn.lstm.lstm_step_batch.calls",
    "nn.optim.adam_step.calls",
    "models.sequence_probabilities.calls",
    "nn.mlp.mlp_forward_batch.rows",
    "features.extend_features.calls",
    "core.CandidateSet.feature_matrix.calls",
    "core.CandidateSet.prices.calls",
    "metrics.attention_diagnostic.records",
    "persistence.read_logs.records",
)


class Ledger:
    """Attempted and failed operation counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


class OpLog:
    """Outputs of a sequence of operations, checked outside the timed span."""

    def __init__(self, workload, inputs, ledger: Ledger):
        self.workload = workload
        self.inputs = inputs
        self.ledger = ledger
        self.first_outputs: dict[int, object] = {}
        self.fingerprints: dict[int, bytes] = {}
        self.latencies: list[float] = []
        self.scales: list[float] = []
        self.items: list[int] = []

    def run(self, index: int) -> None:
        """Run operation ``index`` between two calibration samples, then check its output."""
        workload = self.workload
        before = workload.calibration.sample()
        start = time.perf_counter()
        try:
            output = workload.op(self.inputs, index)
            error = False
        except Exception:  # a failed operation is counted, and the run goes on
            self._report(index, traceback.format_exc())
            output, error = None, True
        latency = time.perf_counter() - start
        self.scales.append(workload.calibration.scale(before, workload.calibration.sample()))
        ok = not error
        if ok:
            try:
                checked = workload.check(self.inputs, index, output)
            except Exception:  # a malformed output fails its check
                self._report(index, traceback.format_exc())
                checked = None
            item = index % workload.work_items
            if checked is None or not checked.ok:
                ok = False
            elif item not in self.fingerprints:
                self.fingerprints[item] = checked.fingerprint
                self.first_outputs[item] = output
            else:
                ok = self.fingerprints[item] == checked.fingerprint
            if not ok and checked is not None:
                self._report(index, "output failed its check\n")
        self.ledger.record(ok)
        self.latencies.append(latency)
        self.items.append(workload.op_items(self.inputs, index))

    def _report(self, index: int, message: str) -> None:
        if self.ledger.failed < REPORTED_FAILURES:
            sys.stderr.write(f"{self.workload.name} operation {index}: {message}")

    def scaled_latencies(self) -> np.ndarray:
        """Operation times in seconds at nominal machine speed."""
        return np.asarray(self.latencies) * np.asarray(self.scales)

    def finish(self) -> dict:
        """Sample checks and the result information printed beside the metrics."""
        for ok in self.workload.sample_checks(self.inputs, self.first_outputs):
            self.ledger.record(ok)
        info = self.workload.info(self.inputs, self.first_outputs) if self.first_outputs else {}
        info["outputs_sha256"] = (self.digest(), f"over_{len(self.fingerprints)}_inputs")
        return info

    def digest(self) -> str:
        """SHA-256 over the output fingerprints of every distinct input, in order."""
        digest = hashlib.sha256()
        for item in sorted(self.fingerprints):
            digest.update(hashlib.sha256(self.fingerprints[item]).digest())
        return digest.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, workdir, seed: int, seconds: float):
    """End-to-end metrics: set-up time, throughput, latency and memory."""
    setups = [SETUP_CALIBRATION.timed(lambda: workload.setup(workdir, seed)) for _ in range(SETUP_REPS)]
    inputs = setups[-1][0]
    ledger = Ledger()
    log = OpLog(workload, inputs, ledger)
    log.run(0)  # warm-up, checked but not timed
    for series in (log.latencies, log.scales, log.items):
        series.clear()
    gc.collect()
    index = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        log.run(index)
        index += 1
    info = log.finish()
    scaled_ms = log.scaled_latencies() * 1e3
    wall_ms = np.asarray(log.latencies) * 1e3
    items = sum(log.items)
    metrics = {
        "setup_s": (statistics.median(s for _, _, s in setups), "s"),
        "items_per_s": (items * 1e3 / float(scaled_ms.sum()), "items/s"),
        "op_ms_p50": (float(np.percentile(scaled_ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(scaled_ms, 90)), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }
    info["ops_timed"] = (len(wall_ms), "count")
    info["wall_setup_s"] = (statistics.median(w for _, w, _ in setups), "s")
    info["wall_items_per_s"] = (items * 1e3 / float(wall_ms.sum()), "items/s")
    info["wall_op_ms_p50"] = (float(np.percentile(wall_ms, 50)), "ms")
    info["wall_op_ms_p90"] = (float(np.percentile(wall_ms, 90)), "ms")
    info["speed_scale_median"] = (statistics.median(log.scales), "ratio")
    return ledger, metrics, info


def run_traced(workload, workdir, seed: int):
    """Per-layer metrics over a fixed number of operations.

    Untraced and traced passes over the same operations run in the order
    untraced, traced, traced, untraced, so the tracing overhead is measured
    on identical work and a steady drift in machine speed cancels. Both
    traced passes must give identical counts, and every pass the same output
    digest.
    """
    ledger = Ledger()
    with Tracer(setup_patches()) as setup_tracer:
        inputs, wall, scaled = SETUP_CALIBRATION.timed(lambda: workload.setup(workdir, seed))
    setup_scale = scaled / wall
    OpLog(workload, inputs, ledger).run(0)  # warm-up
    gc.collect()
    untraced, traced, tracers = [], [], []
    for tracing in (False, True, True, False):
        log = OpLog(workload, inputs, ledger)
        tracer = Tracer(timed_phase_patches(), counted_properties()) if tracing else contextlib.nullcontext()
        with tracer:
            for index in range(workload.trace_ops):
                log.run(index)
        if tracing:
            traced.append(log)
            tracers.append(tracer)
        else:
            untraced.append(log)
    ledger.record(len({log.digest() for log in untraced + traced}) == 1)
    ledger.record(all(dict(t.counts) == dict(tracers[0].counts) for t in tracers))
    info = untraced[0].finish()

    counts = defaultdict(int)
    self_s = defaultdict(float)
    for tracer, log in zip(tracers, traced):
        scale = float(log.scaled_latencies().sum()) / sum(log.latencies)
        for name, value in tracer.counts.items():
            counts[name] += value
        for name, value in tracer.self_seconds().items():
            self_s[name] += value * scale
    items = sum(sum(log.items) for log in traced)
    setup_items = workload.setup_items(inputs)

    metrics = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_us"] = (self_s.get(layer, 0.0) * 1e6 / items, "us/item")
    setup_self_s = setup_tracer.self_seconds()
    for layer in SETUP_LAYERS:
        metrics[f"{layer}.self_us"] = (setup_self_s.get(layer, 0.0) * setup_scale * 1e6 / setup_items, "us/item")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    pairs = counts.get("models.advance_entries.pairs", 0)
    pool = counts.get("ranker.beam_search.pool_entries", 0)
    metrics["models.advance_entries.useful_frac"] = (pool / pairs if pairs else 0.0, "ratio")
    metrics["models.advance_entries.attn_bytes"] = (
        counts.get("models.advance_entries.attn_bytes", 0), "bytes_computed"
    )
    traced_s = sum(float(log.scaled_latencies().sum()) for log in traced)
    untraced_s = sum(float(log.scaled_latencies().sum()) for log in untraced)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    info["traced_ops"] = (len(traced) * workload.trace_ops, "count")
    info["traced_items"] = (items, "count")
    return ledger, metrics, info
