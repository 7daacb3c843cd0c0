"""The original RouteNet architecture (link + path entities).

Implements the message passing of Rusek et al. (SOSR 2019), which the paper
uses as the reference baseline:

1. every path reads the sequence of states of the links it traverses with a
   recurrent unit (``RNN_P``), starting from the path's current state;
2. every link aggregates (sums) the recurrent outputs produced at the hops
   where it appears, and updates its state through ``RNN_L``;
3. after ``T`` iterations a readout network maps the final path states to
   per-path performance estimates (delay).

The link capacity is encoded in the initial link state and the per-path
traffic volume in the initial path state.  Queue sizes are *not* visible to
this model — that is precisely the limitation the extended architecture
removes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datasets.tensorize import TensorizedSample
from repro.models.config import RouteNetConfig
from repro.models.message_passing import (
    MessagePassingIndex,
    build_index,
    build_scan_plan,
    initial_state,
)
from repro.models.readout import ReadoutMLP
from repro.nn.module import Module
from repro.nn.recurrent import GRUCell, scan_rnn
from repro.nn.tensor import Tensor, default_dtype, no_grad, resolve_dtype

__all__ = ["RouteNet"]


class RouteNet(Module):
    """Original RouteNet: link and path entities only."""

    def __init__(self, config: Optional[RouteNetConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else RouteNetConfig()
        #: Resolved floating precision of parameters and hidden states.
        self.dtype = resolve_dtype(self.config.dtype)
        rng = np.random.default_rng(self.config.seed)
        with default_dtype(self.dtype):
            # RNN_P: reads link states along the path, carrying the path state.
            self.path_update = GRUCell(self.config.link_state_dim,
                                       self.config.path_state_dim, rng=rng)
            # RNN_L: updates a link state from the aggregated path messages.
            self.link_update = GRUCell(self.config.path_state_dim,
                                       self.config.link_state_dim, rng=rng)
            self.readout = ReadoutMLP(self.config.path_state_dim,
                                      hidden_sizes=self.config.readout_hidden_sizes,
                                      rng=rng)

    # ------------------------------------------------------------------ #
    def forward(self, sample: TensorizedSample) -> Tensor:
        """Predict (normalised) per-path delays for one sample."""
        index = build_index(sample)
        link_states = initial_state(sample.link_features, self.config.link_state_dim,
                                    dtype=self.dtype)
        path_states = initial_state(sample.path_features, self.config.path_state_dim,
                                    dtype=self.dtype)

        for _ in range(self.config.message_passing_iterations):
            path_states, link_states = self._message_passing_step(
                sample, index, path_states, link_states)

        return self.readout(path_states)

    # ------------------------------------------------------------------ #
    def _message_passing_step(self, sample: TensorizedSample, index: MessagePassingIndex,
                              path_states: Tensor, link_states: Tensor):
        # Streaming checkpointed scan: gathers each hop's link state on the
        # fly and scatters every step's output straight into the per-link
        # accumulators, so neither the gathered sequence nor the stacked
        # outputs ever exist.  In "compiled" mode the scan runs through the
        # plan's precompiled step-kernel spec instead of the interpreted
        # per-step tape.
        plan = build_scan_plan(sample, index)
        compiled = plan.compiled() if self.config.scan_mode == "compiled" else None
        link_messages, new_path_states = scan_rnn(
            self.path_update, (link_states,), plan.step_sources,
            plan.step_rows, plan.mask, initial_state=path_states,
            scatter=plan.scatter, compiled=compiled)

        # Link update: feed the aggregated messages to RNN_L with the link
        # state as hidden state.
        new_link_states = self.link_update(link_messages, link_states)
        return new_path_states, new_link_states

    # ------------------------------------------------------------------ #
    def predict(self, sample: TensorizedSample) -> np.ndarray:
        """Inference helper returning a NumPy array (no autograd graph)."""
        with no_grad():
            return self.forward(sample).data.copy()
