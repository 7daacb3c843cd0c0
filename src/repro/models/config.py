"""Hyper-parameters shared by the RouteNet family of models."""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.nn.tensor import resolve_dtype

__all__ = ["RouteNetConfig"]


@dataclasses.dataclass
class RouteNetConfig:
    """Architecture hyper-parameters.

    Attributes
    ----------
    link_state_dim / path_state_dim / node_state_dim:
        Sizes of the hidden state vectors of each entity.  The reference
        implementation uses 32/32; the node state was introduced by the
        paper and defaults to the same size.
    message_passing_iterations:
        Number of rounds ``T`` of the iterative message passing.
    readout_hidden_sizes:
        Hidden layer widths of the readout feed-forward network.
    readout_activation:
        Hidden activation of the readout network.
    output_positive:
        When True the readout ends in a softplus so predicted (normalised)
        delays can still take any positive value after denormalisation;
        set to False to allow unconstrained outputs (the default, since the
        regression targets are z-scored).
    dtype:
        Floating precision of parameters and hidden states: ``"float32"``,
        ``"float64"`` or ``None`` (use the process default, see
        :func:`repro.nn.tensor.set_default_dtype`).  float32 halves the
        memory footprint of the backward pass on large merged batches.
    scan_mode:
        How the path RNN scans its sequences.  ``"compiled"`` (default) runs
        the streaming scan through precompiled per-(topology, bucket) step
        kernels: the input projection hoisted out of the step loop, each
        hop a fused raw-NumPy step over presorted index arrays, backward via
        closed-form VJPs instead of a per-step tape.  ``"stream"`` is the
        interpreted checkpointed streaming scan (same O(paths·dim) live
        memory, per-step autograd subgraphs); ``"compiled"`` falls back to
        it for cells without a compiled kernel.
    seed:
        Seed for weight initialisation.
    """

    link_state_dim: int = 16
    path_state_dim: int = 16
    node_state_dim: int = 16
    message_passing_iterations: int = 4
    readout_hidden_sizes: Sequence[int] = (32, 16)
    readout_activation: str = "relu"
    output_positive: bool = False
    dtype: Optional[str] = None
    scan_mode: str = "compiled"
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.link_state_dim, self.path_state_dim, self.node_state_dim) < 1:
            raise ValueError("state dimensions must be positive")
        if self.message_passing_iterations < 1:
            raise ValueError("message_passing_iterations must be at least 1")
        if any(h < 1 for h in self.readout_hidden_sizes):
            raise ValueError("readout hidden sizes must be positive")
        if self.scan_mode not in ("compiled", "stream"):
            raise ValueError("scan_mode must be 'compiled' or 'stream'")
        resolve_dtype(self.dtype)  # raises on anything but float32/float64/None
