"""Evaluation: AUC / RIG, policy-level GMV comparison, attention diagnostics,
and latency/complexity benchmarking."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.stats import rankdata

from .configs import ModelParams
from .core import CandidateSet, Item, MirankError, QueryRecord, Ranking, make_rng
from .features import extend_features
from .models import baseline_probabilities, logged_forward, score_midnn_batch
from .nn.common import PROB_EPS
from .ranker import beam_search, rank_by_baseline, rank_by_sort
from .simgen import BehaviorConfig, session_probabilities

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


def auc(predictions, labels) -> float:
    """Probability that a random positive outranks a random negative; ties 0.5.

    Computed from rank statistics, so it is invariant under any strictly
    increasing transform of the predictions.
    """
    labels = _check_labels(labels)
    predictions = np.asarray(predictions, dtype=np.float64)
    ranks = rankdata(predictions)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def rig(predictions, labels) -> float:
    """Relative information gain: 1 - mean cross-entropy / entropy of the
    empirical positive rate. 0 = uninformative constant, 1 = perfect."""
    labels = _check_labels(labels).astype(np.float64)
    p = np.clip(np.asarray(predictions, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    mean_ce = float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)))
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
    catalog: Sequence[Item],
    n_queries: int,
    items_per_query: int,
    seed: int,
    use_sampled_labels: bool = False,
    subset_sampling: str = "price_band",
) -> PolicyComparison:
    """Rank the same candidate sets with every policy and score the results
    against the simulator's ground truth.

    By default the GMV is the sum of price times ground-truth probability
    under each policy's order, which removes Monte-Carlo label noise; pass
    use_sampled_labels=True to score sampled purchases instead.
    """
    from .simgen import _subset_sampler

    sampler = _subset_sampler(catalog, items_per_query, subset_sampling)
    rng = make_rng(seed)
    names = tuple(policies)
    gmv = np.zeros((n_queries, len(names)))
    for q in range(n_queries):
        candidates = CandidateSet(tuple(catalog[i] for i in sampler(rng)))
        prices = candidates.prices
        for column, name in enumerate(names):
            ranking = policies[name](candidates)
            displayed = [candidates.items[i] for i in ranking.order]
            probs = session_probabilities(config, displayed)
            if use_sampled_labels:
                outcomes = (rng.random(len(probs)) < probs).astype(float)
                gmv[q, column] = float(np.sum(prices[list(ranking.order)] * outcomes))
            else:
                gmv[q, column] = float(np.sum(prices[list(ranking.order)] * probs))
    return PolicyComparison(policy_names=names, gmv=gmv)


def model_policy(params: ModelParams, beam_size: int = 5, gamma: float = 1.0):
    """Ranking callable for a trained model, usable with compare_policies."""
    if params.variant == "midnn":
        return lambda candidates: rank_by_sort(params, candidates).ranking
    if params.variant == "baseline":
        return lambda candidates: rank_by_baseline(params, candidates, gamma).ranking
    return lambda candidates: beam_search(params, candidates, beam_size).ranking


# ---------------------------------------------------------------------------
# Attention diagnostic


@dataclass(frozen=True)
class AttentionMatrix:
    """Mean attention of position i to position j, averaged over records.

    ``values[i-1, j-1]`` holds the average weight of 1-based position i on
    position j for 2 <= i <= size, j < i; other cells are zero. Every row
    i >= 2 sums to 1 up to averaging rounding.
    """

    values: np.ndarray
    n_records: int

    @property
    def size(self) -> int:
        return self.values.shape[0]

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
    """Median wall times per configuration plus fitted log-log scaling slopes."""

    rows: tuple[dict, ...]  # keys: model, rerank_size, beam_size, median_seconds
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
    """Median ranking wall time over random candidate sets, one warm-up run
    excluded, with log-log slope fits of time vs rerank size (at the smallest
    beam size) and time vs beam size (at the largest rerank size)."""
    from .simgen import generate_catalog

    rows: list[dict] = []
    first_params = next(iter(models.values()))
    catalogs = {
        n: CandidateSet(tuple(generate_catalog(n, first_params.config.d, seed + n)))
        for n in rerank_sizes
    }
    for name, params in models.items():
        ks = list(beam_sizes) if params.is_recurrent else [0]
        for k in ks:
            rank = model_policy(params, beam_size=k)
            for n in rerank_sizes:
                candidates = catalogs[n]
                rank(candidates)  # warm-up
                samples = []
                for _ in range(repetitions):
                    start = time.perf_counter()
                    rank(candidates)
                    samples.append(time.perf_counter() - start)
                rows.append(
                    {
                        "model": name,
                        "rerank_size": n,
                        "beam_size": k,
                        "median_seconds": float(np.median(samples)),
                    }
                )
    slope_vs_n: dict[str, float] = {}
    slope_vs_k: dict[str, float] = {}
    for name, params in models.items():
        base_k = min(beam_sizes) if params.is_recurrent else 0
        times_n = [
            row["median_seconds"]
            for n in rerank_sizes
            for row in rows
            if row["model"] == name and row["rerank_size"] == n and row["beam_size"] == base_k
        ]
        slope_vs_n[name] = _fit_slope(rerank_sizes, times_n)
        if params.is_recurrent and len(beam_sizes) > 1:
            big_n = max(rerank_sizes)
            times_k = [
                row["median_seconds"]
                for k in beam_sizes
                for row in rows
                if row["model"] == name and row["rerank_size"] == big_n and row["beam_size"] == k
            ]
            slope_vs_k[name] = _fit_slope(beam_sizes, times_k)
    return LatencyProfile(rows=tuple(rows), slope_vs_n=slope_vs_n, slope_vs_k=slope_vs_k)
