"""From-scratch neural primitives: MLP, LSTM, attention, hand-derived gradients."""

from .common import cross_entropy, cross_entropy_batch, sigmoid
from .mlp import mlp_backward, mlp_forward_batch
from .lstm import cell_update, lstm_step_batch
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
    "cell_update",
    "cross_entropy",
    "cross_entropy_batch",
    "gradient_check",
    "lstm_step_batch",
    "mlp_backward",
    "mlp_forward_batch",
    "sequence_backward",
    "sequence_forward",
    "sigmoid",
    "train",
]
