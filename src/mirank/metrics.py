"""Evaluation: AUC / RIG, policy-level GMV comparison, attention diagnostics,
and latency/complexity benchmarking."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .configs import ModelParams
from .core import CandidateSet, MirankError, NonFiniteError, QueryRecord, Ranking, make_rng
from .features import extend_features
from .models import baseline_probabilities, logged_forward, score_midnn_batch
from .nn.common import cross_entropy_batch
from .ranker import rank
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


def _check_labels(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size == 0 or labels.min() == labels.max():
        raise DegenerateLabelsError(
            "need at least one positive and one negative label to compute metrics"
        )
    return labels


def _check_predictions(predictions) -> np.ndarray:
    predictions = np.asarray(predictions, dtype=np.float64)
    nans = int(np.count_nonzero(np.isnan(predictions)))
    if nans:
        raise NonFiniteError(f"{nans} of {predictions.size} predictions are NaN")
    return predictions


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
    increasing transform of the predictions. NaN predictions are a
    NonFiniteError.
    """
    labels = _check_labels(labels)
    ranks = _average_ranks(_check_predictions(predictions))
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def rig(predictions, labels) -> float:
    """Relative information gain: 1 - mean cross-entropy / entropy of the
    empirical positive rate. 0 = uninformative constant, 1 = perfect. NaN
    predictions are a NonFiniteError."""
    labels = _check_labels(labels).astype(np.float64)
    mean_ce = cross_entropy_batch(_check_predictions(predictions), labels) / labels.size
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

    def mean(self, name: str) -> float:
        return float(self.gmv[:, self.policy_names.index(name)].mean())

    def stderr(self, name: str) -> float:
        column = self.gmv[:, self.policy_names.index(name)]
        return float(column.std(ddof=1) / np.sqrt(len(column)))

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
    sampler = _subset_sampler(catalog, items_per_query)
    rng = make_rng(seed)
    names = tuple(policies)
    gmv = np.zeros((n_queries, len(names)))
    for q in range(n_queries):
        candidates = catalog.take(sampler(rng))
        for column, name in enumerate(names):
            displayed = candidates.take(policies[name](candidates).order)
            gmv[q, column] = float(np.sum(displayed.prices * session_probabilities(config, displayed)))
    return PolicyComparison(policy_names=names, gmv=gmv)


def model_policy(params: ModelParams, beam_size: int = 5, gamma: float = 1.0):
    """Ranking callable for a trained model, usable with compare_policies."""
    return lambda candidates: rank(params, candidates, beam_size, gamma).ranking


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

    def row(self, i: int) -> np.ndarray:
        """Weights of 1-based position i over positions 1..i-1."""
        return self.values[i - 1, : i - 1]


def attention_diagnostic(
    params: ModelParams, records: Sequence[QueryRecord], size: int = 20
) -> AttentionMatrix:
    """Average attention weights along the logged order of qualifying records.

    Uses records of length >= size; features are extended over each record's
    full candidate set, and the model walks the first ``size`` positions.
    """
    if params.variant != "mirnn_attention":
        raise MirankError(f"attention diagnostic requires mirnn_attention, got {params.variant!r}")
    prefixes = [extend_features(r.candidate_set)[:size] for r in records if len(r) >= size]
    return logged_predictions(params, prefixes, attention_size=size)[1]


# Rows per MLP call when a whole log is scored, so memory stays bounded.
ROW_CHUNK = 8192


def logged_predictions(
    params: ModelParams, extended: Sequence[np.ndarray], attention_size: int | None = None
) -> tuple[np.ndarray, AttentionMatrix | None]:
    """Purchase probabilities at every logged position of a log, batched.

    ``extended`` holds each record's extended features with rows in logged
    order (one list can serve every model; the baseline reads its local
    half). Returns (probs, attention): probs concatenates the records in log
    order; attention is, for a mirnn_attention model given ``attention_size``,
    the :func:`attention_diagnostic` matrix over the records at least that
    long, read from the same forward pass, and None otherwise.

    The recurrent models are causal, so the first ``attention_size`` positions
    of a full-record forward equal a forward over that prefix alone.
    """
    if not params.is_recurrent:
        rows, score, inverse = np.vstack(extended), score_midnn_batch, None
        if params.variant == "baseline":
            # Score each distinct item once: BLAS rounding can depend on a row's
            # place in the batch, which would split exact ties between repeats.
            rows, inverse = np.unique(rows[:, : rows.shape[1] // 2], axis=0, return_inverse=True)
            score = baseline_probabilities
        probs = np.concatenate([score(params, rows[s : s + ROW_CHUNK]) for s in range(0, len(rows), ROW_CHUNK)])
        return (probs if inverse is None else probs[inverse.ravel()]), None
    size = attention_size if params.variant == "mirnn_attention" else None
    per_record: list = [None] * len(extended)
    total = np.zeros((size, size)) if size is not None else None
    count = 0
    for chunk, probs, caches in logged_forward(params, extended):
        for row, index in enumerate(chunk):
            per_record[index] = probs[row]
        if size is not None and probs.shape[1] >= size:
            for t in range(1, size):
                total[t, :t] += caches["alphas"][t].sum(axis=0)
            count += len(chunk)
    if size is not None and count == 0:
        raise MirankError(f"no records of length >= {size} for the attention diagnostic")
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
    once, and a slope is fitted only over at least two distinct sizes.

    Repetitions go round all (model, beam size, rerank size) cells in turn, so
    a slow stretch of the machine falls on every cell alike; each timed run
    directly follows an untimed one of the same cell, so it finds that cell's
    data in cache. The slopes are fitted on each cell's minimum: load only
    ever adds time, so the fastest repetition is the least noisy estimate of
    the work itself.
    """
    rerank_sizes, beam_sizes = list(dict.fromkeys(rerank_sizes)), list(dict.fromkeys(beam_sizes))
    first_params = next(iter(models.values()))
    catalogs = {n: generate_catalog(n, first_params.config.d, seed + n) for n in rerank_sizes}
    policies = {
        (name, k): model_policy(params, beam_size=k)
        for name, params in models.items()
        for k in (beam_sizes if params.is_recurrent else [0])
    }
    samples: dict[tuple, list[float]] = {
        (name, k, n): [] for name, k in policies for n in rerank_sizes
    }
    for _ in range(repetitions):
        for (name, k, n), times in samples.items():
            rank, candidates = policies[name, k], catalogs[n]
            rank(candidates)  # warm-up
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
    for name, params in models.items():
        base_k = min(beam_sizes) if params.is_recurrent else 0
        if len(rerank_sizes) > 1:
            slope_vs_n[name] = _fit_slope(rerank_sizes, [fastest[name, base_k, n] for n in rerank_sizes])
        if params.is_recurrent and len(beam_sizes) > 1:
            big_n = max(rerank_sizes)
            slope_vs_k[name] = _fit_slope(beam_sizes, [fastest[name, k, big_n] for k in beam_sizes])
    return LatencyProfile(rows=tuple(rows), slope_vs_n=slope_vs_n, slope_vs_k=slope_vs_k)
