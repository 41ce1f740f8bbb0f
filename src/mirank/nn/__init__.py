"""From-scratch neural primitives: MLP, LSTM, attention, hand-derived gradients."""

from .common import cross_entropy, cross_entropy_batch, relu, sigmoid
from .mlp import init_mlp_params, mlp_backward, mlp_forward, mlp_forward_batch
from .lstm import init_lstm_params, lstm_step, lstm_step_batch
from .attention import init_attention_params
from .recurrent import sequence_backward, sequence_forward
from .gradcheck import GradientReport, gradient_check
from .optim import AdamState, adam_step
from .train import TrainConfig, TrainingDiverged, train

__all__ = [
    "AdamState",
    "GradientReport",
    "TrainConfig",
    "TrainingDiverged",
    "adam_step",
    "cross_entropy",
    "cross_entropy_batch",
    "gradient_check",
    "init_attention_params",
    "init_lstm_params",
    "init_mlp_params",
    "lstm_step",
    "lstm_step_batch",
    "mlp_backward",
    "mlp_forward",
    "mlp_forward_batch",
    "relu",
    "sequence_backward",
    "sequence_forward",
    "sigmoid",
    "train",
]
