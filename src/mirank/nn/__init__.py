"""From-scratch neural primitives: MLP, LSTM, attention, hand-derived gradients."""

from .common import sigmoid
from .mlp import mlp_forward_batch
from .recurrent import cell_update, sequence_forward

__all__ = ["cell_update", "mlp_forward_batch", "sequence_forward", "sigmoid"]
