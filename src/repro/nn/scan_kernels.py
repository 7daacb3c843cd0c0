"""Compiled step kernels for the streaming RNN scan.

The interpreted :func:`repro.nn.recurrent.scan_rnn` re-enters the autograd
tape at every hop: each step gathers its input rows, builds a small Tensor
subgraph through the cell, and scatters outputs with ``np.add.at``.  For a
GRU nothing in that subgraph is dynamic — the whole scan is a fixed
pipeline of BLAS calls and index moves once the (topology, bucket) is
known.  This module compiles that pipeline:

* :func:`compile_scan_spec` turns the per-step index arrays of a
  :class:`~repro.models.message_passing.ScanPlan` into a
  :class:`ScanKernelSpec` — a path order, and per step the width of the
  live prefix, contiguous row indices, validity masks, and sort/offset
  arrays that let every scatter run as ``np.add.reduceat`` over presorted
  segments instead of ``np.add.at``.  Specs are built once per (topology,
  bucket) and memoised on the plan.
* :func:`compile_step_kernel` wraps a :class:`~repro.nn.recurrent.GRUCell`
  in a :class:`GRUStepKernel` exposing the cell maths as raw-NumPy forward
  and closed-form VJP routines that write into caller-provided buffers.
* :func:`run_compiled_scan` executes the spec: the input projection
  ``source @ W_in + bias`` is hoisted out of the step loop (one BLAS call
  per source per scan, amortised over every hop that reads it), each step is
  a ``take``-into-buffer + fused cell step + masked restore, and backward
  re-derives each step's gates from the carried-state checkpoint without
  ever building a Tensor graph.  Input gradients accumulate into a
  per-source projection-gradient matrix and are folded into the weight,
  bias and source gradients with one matmul each at the end of the scan.

The executor runs **gate-major**: the carried state is a C-contiguous
``(hidden, paths)`` array, the hoisted projections are ``(3·hidden,
entities)`` and each step's gate pre-activations are ``(3·hidden, paths)``,
so the update, reset and candidate blocks are contiguous row ranges.  Every
element-wise op of the cell then runs as one inner loop over a contiguous
block; in the ``(paths, 3·hidden)`` layout each gate was a column slice and
every op paid one strided inner loop per path, which cost more than the
transcendentals themselves.  The scan permutes and transposes in and out
once, so its inputs and outputs keep :func:`scan_rnn`'s ``(rows, hidden)``
contract and path order.

The executor also computes on **live paths only**.  A bucket's sequences
are padded to its longest path, and in a merged GEANT2 batch fewer than
half of the padded (path, step) slots are real hops (47.3% in perfbench's
``train`` batches).  The spec orders the paths by their last valid step,
longest-lived first, so the paths still live at step ``t`` — valid at
``t`` or later — are a prefix of ``live_t`` columns, and every step's
gather, cell step, emission and VJP run on ``(·, live_t)`` blocks.  A path's
final state is written out when it leaves the prefix.

Cells other than the exact :class:`~repro.nn.recurrent.GRUCell` (the LSTM
cell and custom cells) fall back to the interpreted scan transparently
(:func:`compile_step_kernel` returns ``None`` for them).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import (
    Tensor,
    is_grad_enabled,
    make_multi_output,
)

__all__ = [
    "StepPlan",
    "ScanKernelSpec",
    "compile_scan_spec",
    "compile_step_kernel",
    "run_compiled_scan",
    "GRUStepKernel",
]

#: The two flat arrays no-grad forward alternates its step outputs between.
_STATE_BUFFERS = ("state_even", "state_odd")


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid of ``x``, in place, as ``0.5·tanh(0.5·x) + 0.5``.

    Within an ulp of the branch-free ``exp(-|x|)`` form of
    :meth:`Tensor.sigmoid`, with no data-dependent mask and no overflow for
    any finite input.
    """
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


# ---------------------------------------------------------------------------
# Step kernel: raw-NumPy GRU maths with a closed-form VJP, gate-major.
# ---------------------------------------------------------------------------


class GRUStepKernel:
    """Raw-NumPy GRU step over pre-projected inputs, in gate-major layout.

    ``state`` is ``(hidden, live)`` and ``gx`` is ``(3·hidden, live)``,
    the rows of ``W_inᵀ·x + bias`` for the update, reset and candidate
    gates in that order.  The kernel only adds the recurrent contribution
    ``W_hhᵀ·state``, the one BLAS call per step the recurrence genuinely
    requires, into a gate buffer reused from step to step.  Backward
    recomputes the step's gates from its carried-state checkpoint rather
    than keeping them from forward, which holds the scan's live memory at
    O(paths·hidden) per step.

    Scratch arrays come from :meth:`buffer`: one flat array per name, sized
    by :meth:`reserve` for the widest step of a pass, whose head serves
    every narrower step.
    """

    def __init__(self, cell) -> None:
        self.cell = cell
        self.hidden = cell.hidden_size
        self.weight_input = cell.weight_input
        self.weight_hidden = cell.weight_hidden
        self.bias = cell.bias
        self.gate_width = 3 * cell.hidden_size
        self._scratch: Dict[str, np.ndarray] = {}
        self._width = 0
        self._dtype = np.dtype(np.float64)

    def reserve(self, width: int, dtype) -> None:
        """Size the scratch for a pass whose steps are at most ``width``
        paths wide, in ``dtype``."""
        self._scratch.clear()
        self._width = width
        self._dtype = np.dtype(dtype)

    def buffer(self, name: str, rows: int, live: int) -> np.ndarray:
        """A reused, C-contiguous ``(rows, live)`` view of scratch ``name``.

        The view is the head of one flat array allocated once per pass, so
        narrower steps allocate nothing: arrays of this size freed and
        reallocated every step let the C heap trim and refault its pages.
        """
        flat = self._scratch.get(name)
        if flat is None or flat.size < rows * live:
            flat = self._scratch[name] = np.empty(
                rows * max(live, self._width), dtype=self._dtype)
        return flat[:rows * live].reshape(rows, live)

    def release(self) -> None:
        """Drop the scratch arrays.

        The scan's autograd node keeps the kernel until the optimiser step,
        so each pass hands its buffers back when it ends.
        """
        self._scratch.clear()

    def project(self, source: np.ndarray) -> np.ndarray:
        """``W_inᵀ·sourceᵀ + bias``: the ``(3·hidden, entities)`` projection."""
        projection = np.matmul(self.weight_input.data.T, source.T)
        projection += self.bias.data[:, None]
        return projection

    def _activate(self, gx: np.ndarray, gh: np.ndarray, gates: np.ndarray) -> None:
        """Write the update, reset and candidate activations into ``gates``.

        ``gh`` holds ``W_hhᵀ·state``; ``gates`` may be ``gh`` itself, in
        which case the candidate block's recurrent term is consumed.
        """
        hidden = self.hidden
        update_reset = gates[:2 * hidden]
        np.add(gh[:2 * hidden], gx[:2 * hidden], out=update_reset)
        _sigmoid_(update_reset)
        candidate = gates[2 * hidden:]
        np.multiply(gh[2 * hidden:], gates[hidden:2 * hidden], out=candidate)
        candidate += gx[2 * hidden:]
        np.tanh(candidate, out=candidate)

    def step(self, gx: np.ndarray, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Advance ``state`` one step into ``out`` and return ``out``."""
        hidden = self.hidden
        gates = self.buffer("gates", self.gate_width, state.shape[1])
        np.matmul(self.weight_hidden.data.T, state, out=gates)
        self._activate(gx, gates, gates)
        update = gates[:hidden]
        candidate = gates[2 * hidden:]
        # h' = (1 - z)·n + z·h, as n + z·(h - n): three ops, no temporary.
        np.subtract(state, candidate, out=out)
        out *= update
        out += candidate
        return out

    def step_backward(self, gx: np.ndarray, state: np.ndarray, d_new: np.ndarray,
                      dgx_out: np.ndarray, d_prev_out: np.ndarray,
                      weight_hidden_grad: np.ndarray) -> None:
        """Closed-form VJP of :meth:`step` from the step's input ``state``.

        Writes the gate pre-activation gradients into ``dgx_out`` and the
        input state's gradient into ``d_prev_out``, and adds ``W_hh``'s
        gradient into ``weight_hidden_grad``.
        """
        hidden = self.hidden
        live = state.shape[1]
        weight_hidden = self.weight_hidden.data
        gh = self.buffer("gates", self.gate_width, live)
        gates = self.buffer("activations", self.gate_width, live)
        dgh = self.buffer("recurrent_grad", self.gate_width, live)
        scratch = self.buffer("scratch", 2 * hidden, live)
        np.matmul(weight_hidden.T, state, out=gh)
        self._activate(gx, gh, gates)
        update = gates[:hidden]
        reset = gates[hidden:2 * hidden]
        candidate = gates[2 * hidden:]
        gh_candidate = gh[2 * hidden:]

        # Sigmoid derivatives z(1 - z) and r(1 - r), over both blocks at once.
        slopes = scratch
        np.subtract(1.0, gates[:2 * hidden], out=slopes)
        slopes *= gates[:2 * hidden]
        work = d_prev_out  # free until the recurrent matmul below

        # Pre-activation gate gradients, written straight into dgx.
        d_update = dgx_out[:hidden]
        d_reset = dgx_out[hidden:2 * hidden]
        d_candidate = dgx_out[2 * hidden:]
        np.subtract(1.0, update, out=work)
        np.multiply(d_new, work, out=d_candidate)
        np.multiply(candidate, candidate, out=work)
        np.subtract(1.0, work, out=work)
        d_candidate *= work
        np.multiply(d_candidate, gh_candidate, out=d_reset)
        d_reset *= slopes[hidden:]
        np.subtract(state, candidate, out=d_update)
        d_update *= d_new
        d_update *= slopes[:hidden]

        # The recurrent gate grads differ from dgx only in the candidate
        # block, which the reset gate scales.
        dgh[:2 * hidden] = dgx_out[:2 * hidden]
        np.multiply(d_candidate, reset, out=dgh[2 * hidden:])

        np.multiply(d_new, update, out=scratch[:hidden])
        np.matmul(weight_hidden, dgh, out=d_prev_out)
        d_prev_out += scratch[:hidden]
        weight_hidden_grad += state @ dgh.T


def compile_step_kernel(cell) -> Optional[GRUStepKernel]:
    """Return a gate-major step kernel for ``cell``, or ``None``.

    Only the exact :class:`~repro.nn.recurrent.GRUCell` compiles, the one
    cell the models build; subclasses may override ``forward``, and the
    LSTM and custom cells take :func:`scan_rnn`'s interpreted scan.
    """
    from repro.nn import recurrent

    if type(cell) is recurrent.GRUCell:
        return GRUStepKernel(cell)
    return None


# ---------------------------------------------------------------------------
# Scan specs: precompiled per-step index/offset arrays.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class StepPlan:
    """Precompiled index arrays for one scan step, over its live prefix.

    ``live`` is the number of paths valid at this step or a later one; in
    the spec's path order they are the first ``live`` columns, and every
    array here indexes that prefix.  ``rows`` are the prefix's source rows;
    ``in_perm``/``in_starts``/``in_entities`` sort them by entity (ties by
    original path index) so the input-gradient scatter runs as
    ``np.add.reduceat`` over contiguous runs; the ``emit_*`` arrays do the
    same for the forward output scatter, their rows in prefix positions
    (``emit_unique_segments`` are unique, so the follow-up fancy ``+=`` is
    exact).  ``valid_mask``/``invalid_mask`` are ``(1, live)`` boolean rows
    that broadcast over the gate-major state when the prefix has holes
    (paths invalid here but valid later); both are ``None`` when the whole
    prefix is valid.  A step whose mask column is entirely invalid is a
    no-op for both passes and carries ``valid_count == 0`` with every index
    array empty/``None``.
    """

    source: int
    live: int
    rows: np.ndarray
    valid_count: int
    valid_mask: Optional[np.ndarray]
    invalid_mask: Optional[np.ndarray]
    in_perm: Optional[np.ndarray]
    in_starts: Optional[np.ndarray]
    in_entities: Optional[np.ndarray]
    emit_rows: Optional[np.ndarray] = None
    emit_segments: Optional[np.ndarray] = None
    emit_sorted_rows: Optional[np.ndarray] = None
    emit_starts: Optional[np.ndarray] = None
    emit_unique_segments: Optional[np.ndarray] = None


@dataclasses.dataclass
class ScanKernelSpec:
    """Compiled form of a scan plan: one :class:`StepPlan` per step.

    ``order[i]`` is the path in column ``i`` of the executor's arrays and
    ``inverse[p]`` the column of path ``p``.  ``source_rows`` maps every
    source a step reads to one past the largest row it reads, so the
    executor checks the sources' sizes once per scan and its per-step
    gathers can skip the per-element bounds check.
    """

    num_paths: int
    num_steps: int
    has_scatter: bool
    steps: List[StepPlan]
    used_sources: Tuple[int, ...]
    source_rows: Dict[int, int]
    order: np.ndarray
    inverse: np.ndarray


def compile_scan_spec(step_sources: np.ndarray, step_rows: np.ndarray,
                      mask: np.ndarray, scatter=None) -> ScanKernelSpec:
    """Precompile the index arrays of a scan into a :class:`ScanKernelSpec`.

    Built once per (topology, bucket) and reused for every forward/backward
    over that batch shape; all sorting and uniqueness analysis happens here
    rather than inside the step loop.

    The paths are ordered by their last valid step, longest-lived first,
    with a stable sort (a path with no valid step goes last).  Step ``t``'s
    valid paths then lie in the prefix of the ``live`` paths valid at ``t``
    or later, and each :class:`StepPlan` covers that prefix only.  The
    reductions keep their summation order: emissions are sorted by segment
    in their original order, and input-gradient rows by entity with ties
    broken by original path index, so both ``reduceat`` calls add the same
    non-zero terms in the same order as over every path (the paths dropped
    only ever added exact zeros).
    """
    step_rows = np.asarray(step_rows, dtype=np.int64)
    if step_rows.ndim != 2:
        raise ValueError("step_rows must have shape (num_paths, num_steps)")
    num_paths, num_steps = step_rows.shape
    step_sources = np.asarray(step_sources, dtype=np.int64)
    valid = np.asarray(mask) > 0
    if valid.shape != (num_paths, num_steps):
        raise ValueError(f"mask shape {valid.shape} does not match {(num_paths, num_steps)}")

    last = np.where(valid.any(axis=1),
                    num_steps - 1 - np.argmax(valid[:, ::-1], axis=1), -1)
    order = np.argsort(-last, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(num_paths)
    live_counts = np.count_nonzero(last[:, None] >= np.arange(num_steps), axis=0)
    valid = valid[order]
    step_rows = step_rows[order]

    steps: List[StepPlan] = []
    source_rows: Dict[int, int] = {}
    for step in range(num_steps):
        source = int(step_sources[step])
        live = int(live_counts[step])
        column = valid[:live, step]
        valid_count = int(column.sum())
        if valid_count == 0:
            steps.append(StepPlan(
                source=source, live=live, rows=np.zeros(0, dtype=np.int64),
                valid_count=0, valid_mask=None, invalid_mask=None,
                in_perm=None, in_starts=None, in_entities=None))
            continue

        rows = np.ascontiguousarray(step_rows[:live, step])
        if rows.min() < 0:
            raise ValueError("step_rows must be non-negative")
        in_perm = np.lexsort((order[:live], rows))
        sorted_rows = rows[in_perm]
        in_entities, in_starts = np.unique(sorted_rows, return_index=True)

        fully_valid = valid_count == live
        valid_mask = None if fully_valid else column[None, :].copy()
        invalid_mask = None if fully_valid else ~valid_mask

        plan = StepPlan(
            source=source, live=live, rows=rows, valid_count=valid_count,
            valid_mask=valid_mask, invalid_mask=invalid_mask,
            in_perm=in_perm, in_starts=in_starts, in_entities=in_entities)

        if scatter is not None and scatter.rows[step] is not None \
                and len(scatter.rows[step]) > 0:
            emit_rows = np.asarray(scatter.rows[step], dtype=np.int64)
            emit_segments = np.asarray(scatter.segment_ids[step], dtype=np.int64)
            if emit_rows.min() < 0 or emit_rows.max() >= num_paths:
                raise ValueError(f"scatter rows of step {step} must index the "
                                 f"{num_paths} paths")
            emit_rows = inverse[emit_rows]
            if emit_rows.max() >= live:
                raise ValueError(f"scatter rows of step {step} must be paths "
                                 "valid at that step or a later one")
            emit_perm = np.argsort(emit_segments, kind="stable")
            sorted_segments = emit_segments[emit_perm]
            unique_segments, emit_starts = np.unique(sorted_segments, return_index=True)
            plan.emit_rows = emit_rows
            plan.emit_segments = emit_segments
            plan.emit_sorted_rows = emit_rows[emit_perm]
            plan.emit_starts = emit_starts
            plan.emit_unique_segments = unique_segments

        source_rows[source] = max(source_rows.get(source, 0), int(rows.max()) + 1)
        steps.append(plan)

    return ScanKernelSpec(
        num_paths=num_paths, num_steps=num_steps,
        has_scatter=scatter is not None, steps=steps,
        used_sources=tuple(sorted(source_rows)), source_rows=source_rows,
        order=order, inverse=inverse)


# ---------------------------------------------------------------------------
# Executor.
# ---------------------------------------------------------------------------


def run_compiled_scan(
    kernel,
    source_tensors: Sequence[Tensor],
    state_tensor: Tensor,
    spec: ScanKernelSpec,
    scatter,
) -> Tuple[Optional[Tensor], Tensor]:
    """Execute a compiled scan spec; mirrors :func:`scan_rnn`'s contract.

    Forward never touches the autograd tape: projections are hoisted to one
    BLAS call per source, each step is a ``take`` into a reused gate buffer
    plus the kernel's fused step, and emission uses presorted
    ``np.add.reduceat``.  Backward walks the carried-state checkpoints in
    reverse through the kernel's closed-form VJPs, accumulating input
    gradients into per-source projection-gradient matrices that are folded
    into the weight/bias/source gradients once per scan.

    Every array inside the scan is gate-major and in the spec's path order
    (see the module docstring), and each step works on its live prefix: the
    initial state is permuted in once into a private copy, checkpoints are
    ``live`` columns wide, and a path's final state is written out, in the
    caller's path order, when it leaves the prefix.  The final state and the
    aggregates come out as C-contiguous ``(paths, hidden)`` and
    ``(segments, hidden)`` arrays, so the caller's initial state is never
    written.
    """
    num_paths = spec.num_paths
    initial = state_tensor.data
    dtype = initial.dtype
    state_size = initial.shape[1]
    gate_width = kernel.gate_width

    parameters = tuple(kernel.cell.parameters())
    parents = tuple(source_tensors) + (state_tensor,) + parameters
    grad_needed = is_grad_enabled() and any(p.requires_grad for p in parents)

    for s, rows in spec.source_rows.items():
        if source_tensors[s].shape[0] < rows:
            raise IndexError(f"scan source {s} has {source_tensors[s].shape[0]} rows, "
                             f"the compiled spec reads {rows}")
    # Every gather below indexes within these bounds (checked above and in
    # compile_scan_spec), so the takes use mode="clip" and skip the
    # per-element bounds check.
    projections = {s: kernel.project(source_tensors[s].data) for s in spec.used_sources}
    aggregated = (np.zeros((state_size, scatter.num_segments), dtype=dtype)
                  if scatter is not None else None)
    kernel.reserve(num_paths, dtype)

    state = np.take(initial.T, spec.order, axis=1)
    final_state = np.empty_like(initial)
    width = num_paths
    parity = 0
    checkpoints: Optional[List[np.ndarray]] = [] if grad_needed else None
    for plan in spec.steps:
        if plan.valid_count == 0:
            # Nothing advances: carry the state array itself as the
            # checkpoint (backward skips the step symmetrically).
            if checkpoints is not None:
                checkpoints.append(state)
            continue
        live = plan.live
        if live < width:
            # The paths past the prefix have taken their last step.
            final_state[spec.order[live:width]] = state[:, live:width].T
            state = state[:, :live]
            width = live
        if grad_needed:
            # Checkpoints must persist until backward — every step needs a
            # fresh output array.
            checkpoints.append(state)
            out = np.empty((state_size, live), dtype=dtype)
        else:
            # Inference alternates between two flat buffers: the consumed
            # state's array becomes the next step's output.
            out = kernel.buffer(_STATE_BUFFERS[parity], state_size, live)
            parity ^= 1
        gx = kernel.buffer("inputs", gate_width, live)
        np.take(projections[plan.source], plan.rows, axis=1, out=gx, mode="clip")
        kernel.step(gx, state, out)
        if plan.invalid_mask is not None:
            np.copyto(out, state, where=plan.invalid_mask)
        state = out
        if aggregated is not None and plan.emit_starts is not None:
            emitted = kernel.buffer("emitted", state_size, len(plan.emit_sorted_rows))
            np.take(state, plan.emit_sorted_rows, axis=1, out=emitted, mode="clip")
            sums = np.add.reduceat(emitted, plan.emit_starts, axis=1)
            aggregated[:, plan.emit_unique_segments] += sums
    final_state[spec.order[:width]] = state.T

    kernel.release()
    aggregated_out = aggregated.T.copy() if aggregated is not None else None

    if not grad_needed:
        if scatter is None:
            return None, Tensor(final_state)
        return Tensor(aggregated_out), Tensor(final_state)

    weight_input = kernel.weight_input
    weight_hidden = kernel.weight_hidden
    bias = kernel.bias

    def joint_backward(grads: Tuple[Optional[np.ndarray], ...]) -> None:
        if scatter is None:
            aggregated_grad, final_grad = None, grads[0]
        else:
            aggregated_grad, final_grad = grads
        # Two full-width gradient carries, both seeded with the final-state
        # gradient in the spec's path order.  A step reads one carry's live
        # prefix and writes the other's, and the prefix only widens in
        # reverse, so a path's column holds its final gradient in both until
        # the path's last step enters the prefix.
        if final_grad is not None:
            carry = np.take(np.asarray(final_grad, dtype=dtype).T, spec.order, axis=1)
        else:
            carry = np.zeros((state_size, num_paths), dtype=dtype)
        spare = carry.copy()
        if aggregated_grad is not None:
            aggregated_grad = np.asarray(aggregated_grad, dtype=dtype).T.copy()

        kernel.reserve(num_paths, dtype)
        projection_grads = {s: np.zeros_like(projections[s])
                            for s in spec.used_sources}
        weight_hidden_grad = np.zeros_like(weight_hidden.data)

        for plan, checkpoint in zip(reversed(spec.steps), reversed(checkpoints)):
            if plan.valid_count == 0:
                continue
            live = plan.live
            if aggregated_grad is not None and plan.emit_rows is not None:
                # Each valid path emits exactly one row per step, so the
                # rows are unique and a fancy-index += is exact.
                carry[:, plan.emit_rows] += aggregated_grad[:, plan.emit_segments]
            state_grad = carry[:, :live]
            d_prev = spare[:, :live]

            gx = kernel.buffer("inputs", gate_width, live)
            np.take(projections[plan.source], plan.rows, axis=1, out=gx, mode="clip")
            if plan.valid_mask is None:
                d_new = state_grad
            else:
                d_new = kernel.buffer("masked_grad", state_size, live)
                np.multiply(state_grad, plan.valid_mask, out=d_new)
            dgx = kernel.buffer("input_grads", gate_width, live)
            kernel.step_backward(gx, checkpoint, d_new, dgx, d_prev,
                                 weight_hidden_grad)
            if plan.invalid_mask is not None:
                # Masked-out paths carry their gradient past this step.
                np.add(d_prev, state_grad, out=d_prev, where=plan.invalid_mask)

            dgx_sorted = kernel.buffer("sorted_input_grads", gate_width, live)
            np.take(dgx, plan.in_perm, axis=1, out=dgx_sorted, mode="clip")
            projection_grads[plan.source][:, plan.in_entities] += \
                np.add.reduceat(dgx_sorted, plan.in_starts, axis=1)

            carry, spare = spare, carry
        kernel.release()

        state_tensor._accumulate(carry.T[spec.inverse])
        for s in spec.used_sources:
            projection_grad = projection_grads[s]
            source = source_tensors[s]
            if weight_input.requires_grad:
                weight_input._accumulate(source.data.T @ projection_grad.T)
            if bias.requires_grad:
                bias._accumulate(projection_grad.sum(axis=1))
            if source.requires_grad:
                source._accumulate(projection_grad.T @ weight_input.data.T)
        if weight_hidden.requires_grad:
            weight_hidden._accumulate(weight_hidden_grad)

    if scatter is None:
        (final_out,) = make_multi_output([final_state], parents, joint_backward)
        return None, final_out
    aggregated_out, final_out = make_multi_output(
        [aggregated_out, final_state], parents, joint_backward)
    return aggregated_out, final_out
