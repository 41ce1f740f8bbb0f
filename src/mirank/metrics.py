"""Evaluation: AUC / RIG, policy-level GMV comparison, attention diagnostics,
and latency/complexity benchmarking."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import nn
from .configs import ATTENTION_SIZE, BEAM_SIZE, ModelParams, whole_at_least
from .core import CandidateSet, MirankError, NonFiniteError, QueryRecord, Ranking, ValidationError, make_rng, naming
# perfbench/tracer.py wraps extend_features here, by this name.
from .features import extend_feature_matrix, extend_features, record_rows  # noqa: F401
from .models import item_probabilities
from .nn.common import cross_entropy_batch
from .ranker import _require_full_ranking, rank
from .simgen import BehaviorConfig, _subset_sampler, generate_catalog, session_probabilities

__all__ = [
    "AttentionMatrix",
    "DegenerateLabelsError",
    "LatencyProfile",
    "MetricReport",
    "PolicyComparison",
    "attention_diagnostic",
    "auc",
    "compare_policies",
    "latency_bench",
    "logged_predictions",
    "metric_report",
    "rig",
]


class DegenerateLabelsError(MirankError):
    """Metrics need at least one positive and one negative label."""


def _checked(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    """``predictions`` as float64 and ``labels``. Two arrays that are not 1-D
    of one length, or a label other than 0 or 1, are a ValidationError; labels
    of one class a DegenerateLabelsError; a NaN prediction a NonFiniteError."""
    predictions, labels = np.asarray(predictions, dtype=np.float64), np.asarray(labels)
    if predictions.ndim != 1 or labels.shape != predictions.shape:
        raise ValidationError(f"predictions and labels must be 1-D of one length, got {predictions.shape} and {labels.shape}")
    other = labels[~np.isin(labels, (0, 1))]
    if other.size:
        raise ValidationError(f"labels must be 0 or 1, got {other[0]}")
    if labels.size == 0 or labels.min() == labels.max():
        raise DegenerateLabelsError(
            "need at least one positive and one negative label to compute metrics"
        )
    nans = int(np.count_nonzero(np.isnan(predictions)))
    if nans:
        raise NonFiniteError(f"{nans} of {predictions.size} predictions are NaN")
    return predictions, labels


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based float64 ranks of NaN-free ``values``; each run of equal values
    gets the mean of its positions, as ``scipy.stats.rankdata`` does by
    default. Every rank is a half-integer, so both give the same bits."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(starts, append=values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks


def auc(predictions, labels) -> float:
    """Probability that a random positive outranks a random negative; ties 0.5.

    Computed from rank statistics, so it is invariant under any strictly
    increasing transform of the predictions. The inputs are checked as
    :func:`_checked` says.
    """
    predictions, labels = _checked(predictions, labels)
    ranks = _average_ranks(predictions)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def rig(predictions, labels) -> float:
    """Relative information gain: 1 - mean cross-entropy / entropy of the
    empirical positive rate. 0 = uninformative constant, 1 = perfect. The
    inputs are checked as :func:`_checked` says, and a prediction outside
    [0, 1] is a ValidationError."""
    predictions, labels = _checked(predictions, labels)
    if not np.all((predictions >= 0.0) & (predictions <= 1.0)):
        raise ValidationError(f"rig takes predictions in [0, 1], got {predictions.min()} to {predictions.max()}")
    labels = labels.astype(np.float64)
    mean_ce = cross_entropy_batch(predictions, labels) / labels.size
    rate = labels.mean()
    entropy = float(-(rate * np.log(rate) + (1.0 - rate) * np.log(1.0 - rate)))
    return 1.0 - mean_ce / entropy


@dataclass(frozen=True)
class MetricReport:
    auc: float
    rig: float
    n_samples: int
    positive_rate: float


def metric_report(predictions, labels) -> MetricReport:
    labels = np.asarray(labels)
    return MetricReport(
        auc=auc(predictions, labels),
        rig=rig(predictions, labels),
        n_samples=int(labels.size),
        positive_rate=float(np.mean(labels)),
    )


# ---------------------------------------------------------------------------
# Policy-level GMV comparison


@dataclass(frozen=True)
class PolicyComparison:
    """Paired per-query GMV of several ranking policies on shared candidate sets."""

    policy_names: tuple[str, ...]
    gmv: np.ndarray  # (n_queries, n_policies)

    def paired_difference(self, a: str, b: str) -> tuple[float, float]:
        """Mean and standard error of per-query GMV(a) - GMV(b)."""
        diff = (
            self.gmv[:, self.policy_names.index(a)]
            - self.gmv[:, self.policy_names.index(b)]
        )
        return float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(len(diff)))


def compare_policies(
    policies: dict[str, Callable[[CandidateSet], Ranking]],
    config: BehaviorConfig,
    catalog: CandidateSet,
    n_queries: int,
    items_per_query: int,
    seed: int,
) -> PolicyComparison:
    """Rank the same price-band candidate sets (the sampler of
    :func:`generate_logs`) with every policy and score the results against
    the simulator's ground truth.

    The GMV is the sum of price times ground-truth probability under each
    policy's order, which removes Monte-Carlo label noise.
    """
    n_queries = whole_at_least("n_queries", n_queries, 0)
    sampler = _subset_sampler(catalog, items_per_query)
    rng = make_rng(seed)
    names = tuple(policies)
    gmv = np.zeros((n_queries, len(names)))
    for q in range(n_queries):
        candidates = catalog.take(sampler(rng))
        for column, name in enumerate(names):
            ranking = policies[name](candidates)
            _require_full_ranking(ranking, candidates, f"policy {name!r}'s ranking")
            displayed = candidates.take(ranking.order)
            gmv[q, column] = float(np.sum(displayed.prices * session_probabilities(config, displayed)))
    return PolicyComparison(policy_names=names, gmv=gmv)


def model_policy(params: ModelParams, beam_size: int = BEAM_SIZE):
    """Ranking callable for a trained model, usable with compare_policies."""
    return lambda candidates: rank(params, candidates, beam_size).ranking


# ---------------------------------------------------------------------------
# Attention diagnostic


@dataclass(frozen=True)
class AttentionMatrix:
    """Mean attention of position i to position j, averaged over records.

    ``values[i-1, j-1]`` holds the average weight of 1-based position i on
    position j for 2 <= i <= len(values), j < i; other cells are zero. Every row
    i >= 2 sums to 1 up to averaging rounding.
    """

    values: np.ndarray
    n_records: int


def attention_diagnostic(
    params: ModelParams, records: Sequence[QueryRecord], size: int = ATTENTION_SIZE
) -> AttentionMatrix:
    """Average attention weights along the logged order of qualifying records.

    Scores each record of length >= size whole, its features extended over
    its full candidate set, by :func:`logged_predictions`: the matrix is the
    one ``evaluate`` reads from its pass over the same records, bit for bit.
    ``size`` and ``records`` are checked as :func:`logged_predictions` checks them.
    """
    params.require("attention_diagnostic", "attention")
    size = whole_at_least("attention_size", size)
    qualifying = [record for record in records if len(record) >= size]
    return logged_predictions(params, qualifying, attention_size=size)[1]


# Rows per MLP call, and records per recurrent forward pass, when a whole log
# is scored: memory stays bounded while each matmul stays wide.
ROW_CHUNK = 8192
LOG_CHUNK = 64


def logged_predictions(
    params: ModelParams, records: Sequence[QueryRecord], attention_size: int | None = None
) -> tuple[np.ndarray, AttentionMatrix | None]:
    """Purchase probabilities at every logged position of ``records``, batched.

    Returns (probs, attention): probs concatenates the records in log order;
    attention is, for a mirnn_attention model given ``attention_size``, the
    :func:`attention_diagnostic` matrix over the records at least that long,
    read from the same forward pass, and None otherwise.

    A recurrent model scores records of one length together, shortest first
    and in log order within a length, in (B, T, F) batches of at most
    LOG_CHUNK records, each extended as one stack: memory holds one batch,
    never an extended copy of the log. A record's batch holds only records of
    its length, so the attention matrix is the same bits whether or not
    shorter records are in the log.

    Before any scoring, a ValidationError rejects: an ``attention_size``,
    for any variant, that is not a whole number of at least 1; a record not
    at the model's d, naming it; an attention model given ``attention_size``
    and no record that long; and an empty log.
    """
    traits = params.traits
    if attention_size is not None:
        attention_size = whole_at_least("attention_size", attention_size)
    size = attention_size if traits.attention else None
    params.config.require_d(records)
    if size is not None and not any(len(record) >= size for record in records):
        raise ValidationError(f"no records of length >= {size} for the attention diagnostic")
    if len(records) == 0:
        raise ValidationError(f"{params.variant} needs at least one record to score")
    if not traits.recurrent:
        rows, inverse = record_rows(records, traits.extended), None
        if not traits.extended:
            # Score each distinct item once: BLAS rounding can depend on a row's
            # place in the batch, which would split exact ties between repeats.
            rows, inverse = np.unique(rows, axis=0, return_inverse=True)
        chunks = range(0, len(rows), ROW_CHUNK)
        probs = np.concatenate([item_probabilities(params, rows[s : s + ROW_CHUNK]) for s in chunks])
        return (probs if inverse is None else probs[inverse.ravel()]), None
    per_record: list = [None] * len(records)
    total = np.zeros((size, size)) if size is not None else None
    count = 0
    by_length: dict[int, list[int]] = {}
    for index, record in enumerate(records):
        by_length.setdefault(len(record), []).append(index)
    for length, indices in sorted(by_length.items()):
        for start in range(0, len(indices), LOG_CHUNK):
            chunk = indices[start : start + LOG_CHUNK]
            local = np.stack([records[i].candidate_set.feature_matrix for i in chunk])
            # An attribute lookup, so that a wrapper set on mirank.nn sees every pass.
            probs, caches = nn.sequence_forward(params.blocks, extend_feature_matrix(local))
            for row, index in enumerate(chunk):
                per_record[index] = probs[row]
            if size is not None and length >= size:
                for t in range(1, size):
                    total[t, :t] += caches["alphas"][t].sum(axis=0)
                count += len(chunk)
    attention = AttentionMatrix(values=total / count, n_records=count) if size is not None else None
    return np.concatenate(per_record), attention


# ---------------------------------------------------------------------------
# Latency / complexity benchmarking


@dataclass(frozen=True)
class LatencyProfile:
    """Wall times per configuration plus fitted log-log scaling slopes."""

    rows: tuple[dict, ...]  # keys: model, rerank_size, beam_size, median_seconds, min_seconds
    slope_vs_n: dict[str, float] = field(default_factory=dict)
    slope_vs_k: dict[str, float] = field(default_factory=dict)


def _fit_slope(sizes: Sequence[int], times: Sequence[float]) -> float:
    return float(np.polyfit(np.log(np.asarray(sizes, float)), np.log(np.asarray(times)), 1)[0])


def latency_bench(
    models: dict[str, ModelParams],
    rerank_sizes: Sequence[int],
    beam_sizes: Sequence[int],
    repetitions: int,
    seed: int,
) -> LatencyProfile:
    """Median and minimum ranking wall time over random candidate sets, with
    log-log slope fits of time vs rerank size (at the smallest beam size) and
    time vs beam size (at the largest rerank size). Repeated sizes count
    once, and a slope is fitted only over at least two distinct sizes. The
    candidates of rerank size n are drawn from seed ``(seed + n) % 2**64``,
    at the one ``d`` of all the models (none, or two, is a ValidationError).
    An empty size list, a size or ``repetitions`` not a whole number of at
    least 1, is a ValidationError naming the argument.

    Repetitions go round all (model, beam size, rerank size) cells in turn, so
    a slow stretch of the machine falls on every cell alike; each timed run
    directly follows an untimed one of the same cell, so it finds that cell's
    data in cache. The slopes are fitted on each cell's minimum: load only
    ever adds time, so the fastest repetition is the least noisy estimate of
    the work itself.
    """
    make_rng(seed)  # rejects, naming it, a seed that is not a 64-bit unsigned integer, before any draw
    repetitions = whole_at_least("repetitions", repetitions)
    rerank_sizes = list(dict.fromkeys(whole_at_least("rerank_sizes", n) for n in rerank_sizes))
    beam_sizes = list(dict.fromkeys(whole_at_least("beam_sizes", k) for k in beam_sizes))
    for key, sizes in (("rerank_sizes", rerank_sizes), ("beam_sizes", beam_sizes)):
        if not sizes:
            raise ValidationError(f"latency_bench takes one or more {key}, got none")
    dims = {name: params.config.d for name, params in models.items()}
    if len(set(dims.values())) != 1:
        raise ValidationError(f"latency_bench takes one or more models of one d, got d={dims}")
    (d,) = set(dims.values())
    catalogs = {n: generate_catalog(n, d, (seed + n) % 2**64) for n in rerank_sizes}
    # The feed-forward models sort without a beam: their one cell has beam size 0.
    beams = {name: beam_sizes if params.traits.recurrent else [0] for name, params in models.items()}
    policies = {(name, k): model_policy(models[name], beam_size=k) for name in models for k in beams[name]}
    samples: dict[tuple, list[float]] = {
        (name, k, n): [] for name, k in policies for n in rerank_sizes
    }
    for _ in range(repetitions):
        for (name, k, n), times in samples.items():
            rank, candidates = policies[name, k], catalogs[n]
            with naming(f"model {name}, rerank size {n}, beam size {k}"):
                rank(candidates)  # warm-up; the timed call repeats it exactly, so only this one can fail
            start = time.perf_counter()
            rank(candidates)
            times.append(time.perf_counter() - start)
    rows = [
        {
            "model": name,
            "rerank_size": n,
            "beam_size": k,
            "median_seconds": float(np.median(times)),
            "min_seconds": min(times),
        }
        for (name, k, n), times in samples.items()
    ]
    fastest = {cell: min(times) for cell, times in samples.items()}
    slope_vs_n: dict[str, float] = {}
    slope_vs_k: dict[str, float] = {}
    for name, ks in beams.items():
        if len(rerank_sizes) > 1:
            slope_vs_n[name] = _fit_slope(rerank_sizes, [fastest[name, min(ks), n] for n in rerank_sizes])
        if len(ks) > 1:
            big_n = max(rerank_sizes)
            slope_vs_k[name] = _fit_slope(ks, [fastest[name, k, big_n] for k in ks])
    return LatencyProfile(rows=tuple(rows), slope_vs_n=slope_vs_n, slope_vs_k=slope_vs_k)
