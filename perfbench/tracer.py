"""In-memory span tracer that wraps mirank functions from outside the package.

Each wrapped function is replaced, for the duration of a traced pass, under
the name its caller looks it up by (``from .models import advance_entries``
binds the name in ``mirank.ranker``, so that is the attribute to replace).
Spans are kept in memory as ``[name, parent, start, end]``; a layer's self
time is its span duration minus the durations of its direct child spans.
Work counts are derived from call arguments or return values, never from
timing, so they repeat exactly for a fixed input.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Span names are the per-layer metric prefixes in BENCHMARK.json.
ADVANCE = "models.advance_entries"
BEAM = "ranker.beam_search"


def _count_advance_entries(counts, args, kwargs, result):
    """Exact work of one ``advance_entries(params, hiddens, cells, histories,
    rep_caches, position, extended)`` call at 1-based ``position`` p.

    pairs = E*N (entry, item) LSTM evaluations; the beam pool keeps the
    E*(N-p+1) of them whose item is not yet placed. With attention and p > 1
    the call scores E*N*(p-1) (item, predecessor) pairs and fills a pair
    tensor of 2A float64 values per score (computed bytes, not measured).
    """
    _, hiddens, _, _, rep_caches, position, extended = args
    entries, items = hiddens.shape[0], len(extended)
    counts[ADVANCE + ".pairs"] += entries * items
    counts[BEAM + ".pool_entries"] += entries * (items - position + 1)
    if rep_caches is not None and position > 1:
        scores = entries * items * (position - 1)
        counts[ADVANCE + ".attn_scores"] += scores
        counts[ADVANCE + ".attn_bytes"] += 8 * scores * 2 * rep_caches.shape[2]


def _count_mlp_rows(counts, args, kwargs, result):
    x = args[1]
    counts["nn.mlp.mlp_forward_batch.rows"] += len(x) if getattr(x, "ndim", 1) > 1 else 1


def _count_diagnostic_records(counts, args, kwargs, result):
    counts["metrics.attention_diagnostic.records"] += result.n_records


def _count_read_records(counts, args, kwargs, result):
    counts["persistence.read_logs.records"] += len(result.records)


def timed_phase_patches():
    """(owner, attribute, span name, counter) for every layer of the timed phase."""
    import mirank.cli
    import mirank.metrics
    import mirank.nn
    import mirank.nn.recurrent
    import mirank.ranker

    # ``import mirank.nn.train`` yields the re-exported function, not the module.
    train_module = sys.modules["mirank.nn.train"]
    cli, ranker = mirank.cli, mirank.ranker
    return [
        (ranker, "advance_entries", ADVANCE, _count_advance_entries),
        (ranker, "beam_search", BEAM, None),
        (ranker, "rerank_top_n", "ranker.rerank_top_n", None),
        (ranker, "extend_features", "features.extend_features", None),
        (cli, "extend_features", "features.extend_features", None),
        (mirank.metrics, "extend_features", "features.extend_features", None),
        (mirank.nn, "sequence_forward", "nn.recurrent.sequence_forward", None),
        (train_module, "sequence_forward", "nn.recurrent.sequence_forward", None),
        (train_module, "sequence_backward", "nn.recurrent.sequence_backward", None),
        (mirank.nn.recurrent, "lstm_step_batch", "nn.lstm.lstm_step_batch", None),
        (mirank.nn.recurrent, "lstm_step_backward", "nn.lstm.lstm_step_backward", None),
        (train_module, "adam_step", "nn.optim.adam_step", None),
        (train_module, "train", "nn.train.train", None),
        (cli, "sequence_probabilities", "models.sequence_probabilities", None),
        (cli, "score_midnn_batch", "models.score_midnn_batch", None),
        (mirank.nn, "mlp_forward_batch", "nn.mlp.mlp_forward_batch", _count_mlp_rows),
        (cli, "attention_diagnostic", "metrics.attention_diagnostic", _count_diagnostic_records),
        (cli, "metric_report", "metrics.metric_report", None),
        (cli, "read_logs", "persistence.read_logs", _count_read_records),
        (cli.evaluate, "callback", "cli.evaluate", None),
    ]


def setup_patches():
    """Layers that build a workload's inputs."""
    import mirank.persistence
    import mirank.simgen

    persistence = mirank.persistence
    return [
        (mirank.simgen, "generate_logs", "simgen.generate_logs", None),
        (persistence, "write_logs", "persistence.write_logs", None),
        (persistence, "save_model", "persistence.save_model", None),
        (persistence, "load_model", "persistence.load_model", None),
    ]


def counted_properties():
    """Properties whose calls are counted (no span: each call is tiny)."""
    from mirank.core import CandidateSet

    return [
        (CandidateSet, "feature_matrix", "core.CandidateSet.feature_matrix.calls"),
        (CandidateSet, "prices", "core.CandidateSet.prices.calls"),
    ]


class Tracer:
    """Spans and counts for the functions in ``patches`` while installed.

    Use as a context manager: entering replaces each attribute with a
    recording wrapper, leaving restores the originals, so code outside the
    ``with`` block runs unwrapped.
    """

    def __init__(self, patches, properties=()):
        self.patches = patches
        self.properties = properties
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, original, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def _count_property(self, original, name):
        counts = self.counts

        def getter(obj):
            counts[name] += 1
            return original.fget(obj)

        return property(getter, doc=original.__doc__)

    def __enter__(self):
        for owner, attr, name, counter in self.patches:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        for owner, attr, name in self.properties:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._count_property(original, name))
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        return False

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, _, start, end) in enumerate(self.spans):
            totals[name] += (end - start) - child[index]
        return totals
