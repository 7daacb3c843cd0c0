"""The GRU cell and sequence-scan helpers.

RouteNet's message passing uses GRU cells in two roles:

* as the *update functions* of link/node states (one step per message-passing
  iteration), and
* as the *path update*, which reads an ordered sequence of link (and, in the
  extended architecture, node) states along each path.

The models run the path update through :func:`scan_rnn`, a streaming
checkpointed scan fused with the per-link aggregation: through the compiled
GRU kernel of :mod:`repro.nn.scan_kernels` under ``scan_mode="compiled"``,
or as the interpreted per-step scan under ``scan_mode="stream"``, which
also serves any other :class:`RNNCellBase` cell.
:func:`run_rnn_over_sequence` scans a cell over a padded, masked batch of
sequences and keeps every step's output; it is the straightforward
reference the tests hold :func:`scan_rnn` to.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.initializers import glorot_uniform, orthogonal, zeros_init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import (
    _GRAD_BUFFER_POOL,
    Tensor,
    as_tensor,
    get_default_dtype,
    is_grad_enabled,
    make_multi_output,
    masked_where,
    no_grad,
    stack,
)

__all__ = ["RNNCellBase", "GRUCell", "run_rnn_over_sequence", "ScanScatter", "scan_rnn"]


class RNNCellBase(Module):
    """Common interface for recurrent cells: ``new_state = cell(inputs, state)``."""

    def __init__(self, input_size: int, hidden_size: int) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size

    @property
    def param_dtype(self) -> np.dtype:
        """The floating dtype of the cell's parameters (states follow it)."""
        for parameter in self.parameters():
            return parameter.data.dtype
        return get_default_dtype()

    def initial_state(self, batch_size: int) -> Tensor:
        """Return an all-zeros hidden state for ``batch_size`` sequences."""
        return Tensor(np.zeros((batch_size, self.hidden_size), dtype=self.param_dtype))

    def forward(self, inputs: Tensor, state: Tensor) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError


class GRUCell(RNNCellBase):
    """Gated recurrent unit cell (Cho et al., 2014).

    Follows the standard formulation::

        z = sigmoid(x Wz + h Uz + bz)      (update gate)
        r = sigmoid(x Wr + h Ur + br)      (reset gate)
        n = tanh(x Wn + (r * h) Un + bn)   (candidate)
        h' = (1 - z) * n + z * h
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(input_size, hidden_size)
        generator = rng if rng is not None else np.random.default_rng()
        # Input-to-hidden weights for the three gates, stacked for efficiency.
        self.weight_input = Parameter(
            glorot_uniform((input_size, 3 * hidden_size), rng=generator), name="weight_input")
        # Hidden-to-hidden weights.
        self.weight_hidden = Parameter(
            orthogonal((hidden_size, 3 * hidden_size), rng=generator), name="weight_hidden")
        self.bias = Parameter(zeros_init((3 * hidden_size,)), name="bias")

    def forward(self, inputs: Tensor, state: Tensor) -> Tensor:
        inputs = as_tensor(inputs)
        state = as_tensor(state)
        hidden = self.hidden_size
        gates_x = inputs.matmul(self.weight_input) + self.bias
        gates_h = state.matmul(self.weight_hidden)

        update_gate = (gates_x[:, :hidden] + gates_h[:, :hidden]).sigmoid()
        reset_gate = (gates_x[:, hidden:2 * hidden] + gates_h[:, hidden:2 * hidden]).sigmoid()
        candidate = (gates_x[:, 2 * hidden:] + reset_gate * gates_h[:, 2 * hidden:]).tanh()
        return (1.0 - update_gate) * candidate + update_gate * state


def run_rnn_over_sequence(
    cell: RNNCellBase,
    sequence: Tensor,
    mask: np.ndarray,
    initial_state: Optional[Tensor] = None,
) -> Tuple[Tensor, Tensor]:
    """Scan ``cell`` over a padded batch of sequences, keeping every output.

    The stacked ``(batch, max_len, state_size)`` outputs stay in the
    autograd graph, so this is the reference formulation, not the one the
    models train with (see :func:`scan_rnn`).

    Parameters
    ----------
    cell:
        The recurrent cell to apply.
    sequence:
        Tensor of shape ``(batch, max_len, input_size)``.
    mask:
        Boolean/0-1 array of shape ``(batch, max_len)``; positions with mask 0
        leave the state unchanged (padding).
    initial_state:
        Optional initial state; defaults to zeros.

    Returns
    -------
    (outputs, final_state):
        ``outputs`` has shape ``(batch, max_len, state_size)`` holding the
        state after each step; ``final_state`` is the state after the last
        valid step of every sequence.
    """
    sequence = as_tensor(sequence)
    if sequence.ndim != 3:
        raise ValueError("sequence must have shape (batch, max_len, input_size)")
    batch, max_len, _ = sequence.shape
    mask = np.asarray(mask)
    if mask.shape != (batch, max_len):
        raise ValueError(f"mask shape {mask.shape} does not match sequence {(batch, max_len)}")

    state = initial_state if initial_state is not None else cell.initial_state(batch)
    valid = mask > 0
    fully_valid = valid.all(axis=0)
    outputs = []
    for step in range(max_len):
        step_input = sequence[:, step, :]
        new_state = cell(step_input, state)
        if fully_valid[step]:
            # No padding at this step: skip the masking select entirely.
            state = new_state
        else:
            # Fused masked update: one autograd node whose backward splits
            # the gradient between new and old state in a pooled buffer.
            state = masked_where(valid[:, step], new_state, state)
        outputs.append(state)
    stacked = stack(outputs, axis=1)
    return stacked, state


@dataclasses.dataclass
class ScanScatter:
    """Per-step output aggregation spec for :func:`scan_rnn`.

    At scan step ``t`` the state rows ``rows[t]`` (each a distinct path) are
    added into the accumulator rows ``segment_ids[t]`` — the streaming
    equivalent of stacking all per-step outputs and gather/segment-summing
    them afterwards.  ``rows[t] is None`` means step ``t`` emits nothing
    (e.g. the node positions of the interleaved extended-RouteNet sequence).
    """

    rows: List[Optional[np.ndarray]]
    segment_ids: List[Optional[np.ndarray]]
    num_segments: int


def scan_rnn(
    cell: RNNCellBase,
    sources: Sequence[Tensor],
    step_sources: np.ndarray,
    step_rows: np.ndarray,
    mask: np.ndarray,
    initial_state: Optional[Tensor] = None,
    scatter: Optional[ScanScatter] = None,
    compiled=None,
) -> Tuple[Optional[Tensor], Tensor]:
    """Streaming, checkpointed masked scan of ``cell`` fused with aggregation.

    Semantically equivalent to gathering the per-step inputs into a
    ``(num_paths, num_steps, dim)`` sequence, calling
    :func:`run_rnn_over_sequence` and gather/segment-summing the stacked
    outputs — but neither the gathered sequence, the stacked outputs nor any
    per-step intermediate survives in the autograd graph:

    * **forward** runs under ``no_grad``; step ``t`` gathers its input rows
      ``sources[step_sources[t]][step_rows[:, t]]`` on the fly, applies the
      cell, masks the update, and (when ``scatter`` is given) adds the
      states of the paths valid at ``t`` straight into the per-segment
      accumulator.  Only the carried state *before* each step is kept (one
      ``(num_paths, state_size)`` array per step — the checkpoints), so live
      memory is O(paths·state) per step instead of the O(paths·steps·state)
      graph of the stacked formulation;
    * **backward** re-runs each step in reverse from its checkpoint as a
      two-leaf subgraph (input rows + previous state), back-propagates the
      incoming state gradient plus the segment-gradient contributions of
      that step, accumulates parameter gradients, and scatter-adds the input
      gradient into the source tensors.

    Parameters
    ----------
    cell:
        The recurrent cell to scan.
    sources:
        State matrices the per-step inputs are gathered from (e.g.
        ``(link_states,)``, or ``(node_states, link_states)`` for the
        interleaved extended scan).
    step_sources:
        ``(num_steps,)`` index into ``sources`` per scan step.
    step_rows:
        ``(num_paths, num_steps)`` row index into the step's source.
    mask:
        ``(num_paths, num_steps)`` validity mask; invalid steps carry the
        previous state unchanged.
    initial_state:
        Optional initial state (defaults to the cell's zero state).
    scatter:
        Optional :class:`ScanScatter` routing each step's output rows into
        ``num_segments`` accumulators.
    compiled:
        Optional :class:`~repro.nn.scan_kernels.ScanKernelSpec` precompiled
        from the same ``(step_sources, step_rows, mask, scatter)`` via
        :func:`~repro.nn.scan_kernels.compile_scan_spec`.  When given and
        the cell has a compiled step kernel (the exact :class:`GRUCell`),
        the scan runs through the raw-NumPy kernel executor instead of the
        interpreted per-step tape; cells without a kernel (subclasses of
        :class:`GRUCell`, other cells) fall back to the interpreted scan
        transparently.

    Returns
    -------
    (aggregated, final_state):
        ``aggregated`` is the ``(num_segments, state_size)`` accumulator
        (``None`` when ``scatter`` is ``None``); ``final_state`` is the
        state after the last step.  Both are outputs of one joint autograd
        node, so either or both may feed the downstream graph.
    """
    step_rows = np.asarray(step_rows, dtype=np.int64)
    if step_rows.ndim != 2:
        raise ValueError("step_rows must have shape (num_paths, num_steps)")
    num_paths, num_steps = step_rows.shape
    step_sources = np.asarray(step_sources, dtype=np.int64)
    if step_sources.shape != (num_steps,):
        raise ValueError(f"step_sources must have shape ({num_steps},)")
    mask = np.asarray(mask)
    if mask.shape != (num_paths, num_steps):
        raise ValueError(f"mask shape {mask.shape} does not match {(num_paths, num_steps)}")
    if scatter is not None and (len(scatter.rows) != num_steps
                                or len(scatter.segment_ids) != num_steps):
        raise ValueError("scatter spec must have one entry per scan step")

    source_tensors = tuple(as_tensor(s) for s in sources)
    state_tensor = initial_state if initial_state is not None \
        else cell.initial_state(num_paths)

    if compiled is not None:
        from repro.nn.scan_kernels import compile_step_kernel, run_compiled_scan

        kernel = compile_step_kernel(cell)
        if kernel is not None:
            if (compiled.num_paths, compiled.num_steps) != (num_paths, num_steps):
                raise ValueError(
                    f"compiled spec is for shape "
                    f"{(compiled.num_paths, compiled.num_steps)}, scan has "
                    f"{(num_paths, num_steps)}")
            if compiled.has_scatter != (scatter is not None):
                raise ValueError(
                    "compiled spec and scatter argument disagree about output "
                    "aggregation")
            return run_compiled_scan(kernel, source_tensors, state_tensor,
                                     compiled, scatter)

    state = state_tensor.data
    state_size = state.shape[1]
    valid = mask > 0
    fully_valid = valid.all(axis=0)

    parameters = tuple(cell.parameters())
    parents = source_tensors + (state_tensor,) + parameters
    grad_needed = is_grad_enabled() and any(p.requires_grad for p in parents)

    # The checkpoints: carried state *before* each step, stored as raw
    # arrays (never mutated — every step produces fresh arrays).  Not
    # retained at all for inference, so ``no_grad`` evaluation streams with
    # O(paths·state) live memory.
    checkpoints: Optional[List[np.ndarray]] = [] if grad_needed else None
    aggregated = (np.zeros((scatter.num_segments, state_size), dtype=state.dtype)
                  if scatter is not None else None)

    with no_grad():
        for step in range(num_steps):
            if checkpoints is not None:
                checkpoints.append(state)
            rows = step_rows[:, step]
            inputs = source_tensors[step_sources[step]].data[rows]
            new_state = cell(Tensor(inputs), Tensor(state)).data
            if fully_valid[step]:
                state = new_state
            else:
                np.copyto(new_state, state, where=~valid[:, step][:, None])
                state = new_state
            if scatter is not None and scatter.rows[step] is not None:
                np.add.at(aggregated, scatter.segment_ids[step],
                          state[scatter.rows[step]])

    final_state = state

    if not grad_needed:
        if scatter is None:
            return None, Tensor(final_state)
        return Tensor(aggregated), Tensor(final_state)

    def joint_backward(grads: Tuple[Optional[np.ndarray], ...]) -> None:
        if scatter is None:
            aggregated_grad, final_grad = None, grads[0]
        else:
            aggregated_grad, final_grad = grads
        if final_grad is not None:
            state_grad = np.array(final_grad, dtype=final_state.dtype, copy=True)
        else:
            state_grad = np.zeros_like(final_state)

        for step in reversed(range(num_steps)):
            if (aggregated_grad is not None and scatter is not None
                    and scatter.rows[step] is not None):
                # Each valid path emits exactly one output row per step, so
                # the rows are unique and a fancy-index += is exact.
                state_grad[scatter.rows[step]] += \
                    aggregated_grad[scatter.segment_ids[step]]

            rows = step_rows[:, step]
            source = source_tensors[step_sources[step]]
            input_leaf = Tensor(source.data[rows], requires_grad=True)
            previous_leaf = Tensor(checkpoints[step], requires_grad=True)
            new_state = cell(input_leaf, previous_leaf)

            if fully_valid[step]:
                new_state.backward(state_grad)
                carried = None
            else:
                valid_column = valid[:, step][:, None]
                step_grad = _GRAD_BUFFER_POOL.take(state_grad.shape, state_grad.dtype)
                np.multiply(state_grad, valid_column, out=step_grad)
                new_state.backward(step_grad)
                _GRAD_BUFFER_POOL.give(step_grad)
                # The masked-out rows carry their gradient past this step.
                np.multiply(state_grad, ~valid_column, out=state_grad)
                carried = state_grad

            if previous_leaf.grad is not None:
                if carried is None:
                    state_grad = previous_leaf.grad
                else:
                    carried += previous_leaf.grad
                    state_grad = carried
            elif carried is None:  # pragma: no cover - cells always use state
                state_grad = np.zeros_like(state_grad)
            if input_leaf.grad is not None:
                source._scatter_accumulate(rows, input_leaf.grad)

        state_tensor._accumulate(state_grad)

    if scatter is None:
        (final_out,) = make_multi_output([final_state], parents, joint_backward)
        return None, final_out
    aggregated_out, final_out = make_multi_output(
        [aggregated, final_state], parents, joint_backward)
    return aggregated_out, final_out
