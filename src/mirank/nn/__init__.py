"""From-scratch neural primitives: MLP, LSTM, attention, hand-derived gradients."""

from .common import cross_entropy, cross_entropy_batch, sigmoid
from .mlp import mlp_backward, mlp_forward_batch
from .lstm import cell_update, lstm_step_batch
from .recurrent import sequence_backward, sequence_forward
from .optim import AdamState, adam_step
from .train import TrainingDiverged, train

__all__ = [
    "AdamState",
    "TrainingDiverged",
    "adam_step",
    "cell_update",
    "cross_entropy",
    "cross_entropy_batch",
    "lstm_step_batch",
    "mlp_backward",
    "mlp_forward_batch",
    "sequence_backward",
    "sequence_forward",
    "sigmoid",
    "train",
]
