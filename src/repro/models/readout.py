"""The readout function: a feed-forward network applied to each path state."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.layers import MLP
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["ReadoutMLP"]


class ReadoutMLP(Module):
    """Maps final path states to scalar per-path predictions (delay).

    As in both the original and the extended RouteNet, the readout is a
    small fully connected network applied independently to every path state:
    ReLU hidden layers and a linear output.  Its weights are shared across
    paths and learned jointly with the message passing functions.
    """

    def __init__(self, path_state_dim: int, hidden_sizes: Sequence[int] = (32, 16),
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.network = MLP(path_state_dim, list(hidden_sizes), 1,
                           hidden_activation="relu", output_activation=None,
                           rng=rng)

    def forward(self, path_states: Tensor) -> Tensor:
        """Return per-path predictions with shape (num_paths,)."""
        return self.network(path_states).squeeze(-1)
