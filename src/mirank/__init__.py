"""Mutual-influence-aware reranking for e-commerce search.

Estimates per-item purchase probabilities conditioned on the surrounding
candidate set and display order, then searches for the permutation
maximizing expected GMV.
"""

from .configs import ModelConfig, ModelParams, TrainConfig
from .core import CandidateSet, QueryRecord, Ranking
from .features import extend_features
from .metrics import attention_diagnostic, auc, compare_policies, latency_bench, metric_report, rig
from .models import init_model
from .nn.train import train
from .persistence import load_model, read_logs, save_model, write_logs
from .ranker import RankResult, beam_search, exhaustive_oracle, expected_gmv, rank
from .simgen import BehaviorConfig, Dataset, generate_catalog, generate_logs

__version__ = "0.1.0"

__all__ = [
    "BehaviorConfig",
    "CandidateSet",
    "Dataset",
    "ModelConfig",
    "ModelParams",
    "QueryRecord",
    "RankResult",
    "Ranking",
    "TrainConfig",
    "attention_diagnostic",
    "auc",
    "beam_search",
    "compare_policies",
    "exhaustive_oracle",
    "expected_gmv",
    "extend_features",
    "generate_catalog",
    "generate_logs",
    "init_model",
    "latency_bench",
    "load_model",
    "metric_report",
    "rank",
    "read_logs",
    "rig",
    "save_model",
    "train",
    "write_logs",
]
