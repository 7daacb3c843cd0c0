"""The paper's contribution: Extended RouteNet with a node entity.

Three changes relative to the original architecture (Section 2 of the
paper):

1. **Node states.**  Every forwarding device gets a hidden state whose first
   components encode its features — here the (normalised) queue size.
2. **Node update (``RNN_N``).**  Each node receives the element-wise sum of
   the states of all the paths that traverse it, and updates its state with
   a recurrent unit.
3. **Interleaved path update (``RNN_P``).**  Instead of reading only link
   states, the path RNN reads the interleaved sequence
   ``node1 - link1 - node2 - link2 - …`` where ``node_i`` is the device
   whose output queue the packet occupies before traversing ``link_i``.

The link update (``RNN_L``) and the readout are unchanged, so any accuracy
difference against :class:`~repro.models.routenet.RouteNet` is attributable
to the node entity — the comparison Fig. 2 of the paper reports.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.datasets.tensorize import TensorizedSample
from repro.models.config import RouteNetConfig
from repro.models.message_passing import (
    MessagePassingIndex,
    aggregate_path_states_per_node,
    build_index,
    build_scan_plan,
    initial_state,
)
from repro.models.readout import ReadoutMLP
from repro.nn.module import Module
from repro.nn.recurrent import GRUCell, scan_rnn
from repro.nn.tensor import Tensor, default_dtype, resolve_dtype

__all__ = ["ExtendedRouteNet"]


class ExtendedRouteNet(Module):
    """RouteNet extended with a node entity carrying per-device features."""

    def __init__(self, config: Optional[RouteNetConfig] = None,
                 use_node_features: bool = True) -> None:
        super().__init__()
        self.config = config if config is not None else RouteNetConfig()
        if self.config.link_state_dim != self.config.node_state_dim:
            raise ValueError(
                "the interleaved path update requires link_state_dim == node_state_dim")
        #: When False, queue-size features are zeroed out before entering the
        #: node states — the ablation used to show the accuracy gain comes
        #: from the node feature itself, not merely from extra parameters.
        self.use_node_features = use_node_features
        #: Resolved floating precision of parameters and hidden states.
        self.dtype = resolve_dtype(self.config.dtype)
        rng = np.random.default_rng(self.config.seed)

        element_dim = self.config.link_state_dim
        with default_dtype(self.dtype):
            # RNN_P reads the interleaved node/link sequence.
            self.path_update = GRUCell(element_dim, self.config.path_state_dim, rng=rng)
            # RNN_L updates link states from aggregated path messages.
            self.link_update = GRUCell(self.config.path_state_dim,
                                       self.config.link_state_dim, rng=rng)
            # RNN_N updates node states from the summed states of crossing paths.
            self.node_update = GRUCell(self.config.path_state_dim,
                                       self.config.node_state_dim, rng=rng)
            self.readout = ReadoutMLP(self.config.path_state_dim,
                                      hidden_sizes=self.config.readout_hidden_sizes,
                                      rng=rng)

    # ------------------------------------------------------------------ #
    def forward(self, sample: TensorizedSample) -> Tensor:
        """Predict (normalised) per-path delays for one sample."""
        index = build_index(sample)
        link_states = initial_state(sample.link_features, self.config.link_state_dim,
                                    dtype=self.dtype)
        node_features = sample.node_features
        if not self.use_node_features:
            node_features = np.zeros_like(node_features)
        node_states = initial_state(node_features, self.config.node_state_dim,
                                    dtype=self.dtype)
        path_states = initial_state(sample.path_features, self.config.path_state_dim,
                                    dtype=self.dtype)

        for _ in range(self.config.message_passing_iterations):
            path_states, link_states, node_states = self._message_passing_step(
                sample, index, path_states, link_states, node_states)

        return self.readout(path_states)

    # ------------------------------------------------------------------ #
    def _message_passing_step(
        self,
        sample: TensorizedSample,
        index: MessagePassingIndex,
        path_states: Tensor,
        link_states: Tensor,
        node_states: Tensor,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        # Streaming checkpointed scan over the interleaved node/link
        # sequence: even steps gather node states, odd steps link states,
        # and only the odd (link) steps scatter their outputs into the
        # per-link accumulators, so the interleaved sequence and the stacked
        # outputs never materialise.  "compiled" runs it through the plan's
        # precompiled step-kernel spec.
        plan = build_scan_plan(sample, index, interleaved=True)
        compiled = plan.compiled() if self.config.scan_mode == "compiled" else None
        link_messages, new_path_states = scan_rnn(
            self.path_update, (node_states, link_states), plan.step_sources,
            plan.step_rows, plan.mask, initial_state=path_states,
            scatter=plan.scatter, compiled=compiled)
        new_link_states = self.link_update(link_messages, link_states)

        # Node update: element-wise sum of the states of the paths crossing
        # each node, fed to RNN_N with the node state as hidden state.
        node_messages = aggregate_path_states_per_node(new_path_states, index)
        new_node_states = self.node_update(node_messages, node_states)

        return new_path_states, new_link_states, new_node_states

    # ------------------------------------------------------------------ #
    def predict(self, sample: TensorizedSample) -> np.ndarray:
        """Inference helper returning a NumPy array (no autograd graph)."""
        from repro.nn.tensor import no_grad

        was_training = self.training
        self.eval()
        try:
            with no_grad():
                predictions = self.forward(sample)
        finally:
            self.train(was_training)
        return predictions.data.copy()
