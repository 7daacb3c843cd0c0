"""Gradient and equivalence checks for the compiled scan kernels.

:mod:`repro.nn.scan_kernels` replaces the interpreted per-step tape of
:func:`repro.nn.recurrent.scan_rnn` with precompiled index plans and a
raw-NumPy gate-major GRU step kernel whose backward is a hand-derived
closed-form VJP.  That VJP is held against

* float64 central differences (the reusable gradcheck harness) in both
  supported precisions, over plain and interleaved multi-source plans,
  with the loss reaching both outputs or only one;
* the interpreted streaming scan itself — forward values and every
  gradient must agree within rounding on the same spec;
* structural edge cases the model planner produces: a step whose mask
  column is entirely invalid, a single-path bucket, and ragged buckets
  where the trailing steps keep only one path alive;
* the live prefix: the spec orders the paths longest-lived first and
  each step covers only the paths valid at it or later, including a path
  with a hole inside that prefix and a path with no valid step at all.

The kernel's in-place sigmoid must match the branch-free ``np.where``
form to rounding without a floating-point exception at extreme inputs,
and the executor's gate-major internals must not show through: its
outputs are C-contiguous ``(rows, hidden)`` arrays, the caller's initial
state is never written, and reused buffers carry nothing between calls.

Cells without a compiled kernel (the LSTM cell and custom cells) must
fall back to the interpreted scan, and a spec compiled for a different
shape (or a different scatter arrangement) must be rejected loudly
rather than silently misindex.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.initializers import glorot_uniform
from repro.nn.module import Parameter
from repro.nn.recurrent import (
    GRUCell,
    LSTMCell,
    RNNCellBase,
    ScanScatter,
    scan_rnn,
)
from repro.nn.scan_kernels import (
    _sigmoid_,
    compile_scan_spec,
    compile_step_kernel,
    run_compiled_scan,
)
from repro.nn.tensor import Tensor, no_grad

from tests.nn.gradcheck import module_gradcheck
from tests.support import float_tolerance

DTYPES = ["float64", "float32"]

NUM_PATHS = 3
NUM_STEPS = 4
NUM_ENTITIES = 5
NUM_SEGMENTS = 4
INPUT_DIM = 2

#: Ragged validity: lengths 4 / 2 / 3 — masked and fully-valid steps.
MASK = np.array([[1, 1, 1, 1],
                 [1, 1, 0, 0],
                 [1, 1, 1, 0]], dtype=np.float64)
STEP_ROWS = np.array([[0, 2, 1, 4],
                      [3, 0, 0, 0],
                      [1, 4, 2, 0]], dtype=np.int64)
STEP_SOURCES = np.zeros(NUM_STEPS, dtype=np.int64)

#: Same shape with step 1 entirely invalid — the planner's "no bucket
#: member reaches this hop" case, a forward/backward no-op.
MASK_WITH_GAP = np.array([[1, 0, 1, 1],
                          [1, 0, 0, 0],
                          [1, 0, 1, 0]], dtype=np.float64)

#: Path 0 is never valid and path 1 skips step 1 while still live (it is
#: valid again at step 2): the spec orders them [2, 1, 0].
MASK_WITH_HOLE = np.array([[0, 0, 0, 0],
                           [1, 0, 1, 0],
                           [1, 1, 1, 1]], dtype=np.float64)


def _scatter_spec(mask: np.ndarray) -> ScanScatter:
    """One emission per valid (path, step) entry into a fixed segment."""
    rng = np.random.default_rng(7)
    rows, segment_ids = [], []
    for step in range(mask.shape[1]):
        valid_paths = np.nonzero(mask[:, step] > 0)[0].astype(np.int64)
        rows.append(valid_paths)
        segment_ids.append(rng.integers(0, NUM_SEGMENTS, size=valid_paths.size,
                                        dtype=np.int64))
    return ScanScatter(rows=rows, segment_ids=segment_ids,
                       num_segments=NUM_SEGMENTS)


SCATTER = _scatter_spec(MASK)
SCATTER_WITH_GAP = _scatter_spec(MASK_WITH_GAP)
SCATTER_WITH_HOLE = _scatter_spec(MASK_WITH_HOLE)


def _make_cell_factory(cell_cls, hidden: int):
    return lambda: cell_cls(INPUT_DIM, hidden, rng=np.random.default_rng(3))


def _initial_state(cell_cls, hidden: int, num_paths: int = NUM_PATHS) -> np.ndarray:
    state_size = 2 * hidden if cell_cls is LSTMCell else hidden
    return np.random.default_rng(11).normal(size=(num_paths, state_size)) * 0.4


def _source_array(seed: int = 5) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(NUM_ENTITIES, INPUT_DIM))


# --------------------------------------------------------------------- #
# Central-difference gradchecks through the compiled executor
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("cell_cls,hidden", [(GRUCell, 3)])
def test_compiled_scan_gradcheck_both_outputs(cell_cls, hidden, dtype):
    """Closed-form VJPs vs float64 central differences."""
    spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK, SCATTER)

    def forward(cell, source, initial):
        aggregated, final = scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS,
                                     MASK, initial_state=initial,
                                     scatter=SCATTER, compiled=spec)
        return F.concat([aggregated.reshape(-1), final.reshape(-1)], axis=0)

    module_gradcheck(_make_cell_factory(cell_cls, hidden),
                     [_source_array(), _initial_state(cell_cls, hidden)],
                     forward=forward, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("output_index", [0, 1])
def test_compiled_scan_gradcheck_single_output(output_index, dtype):
    """Gradients stay correct when the loss reaches only one scan output."""
    spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK, SCATTER)

    def forward(cell, source, initial):
        outputs = scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS, MASK,
                           initial_state=initial, scatter=SCATTER,
                           compiled=spec)
        return outputs[output_index]

    module_gradcheck(_make_cell_factory(GRUCell, 3),
                     [_source_array(), _initial_state(GRUCell, 3)],
                     forward=forward, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_compiled_scan_gradcheck_no_scatter(dtype):
    """A compiled scan without emissions is a masked final-state scan."""
    spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK)

    def forward(cell, source, initial):
        aggregated, final = scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS,
                                     MASK, initial_state=initial, compiled=spec)
        assert aggregated is None
        return final

    module_gradcheck(_make_cell_factory(GRUCell, 3),
                     [_source_array(), _initial_state(GRUCell, 3)],
                     forward=forward, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("cell_cls,hidden", [(GRUCell, 3)])
def test_compiled_scan_gradcheck_interleaved(cell_cls, hidden, dtype):
    """Alternating gather sources (the extended model's schedule shape)."""
    step_sources = np.array([0, 1, 0, 1], dtype=np.int64)
    spec = compile_scan_spec(step_sources, STEP_ROWS, MASK, SCATTER)
    second_source = _source_array(seed=13)

    def forward(cell, source_a, source_b, initial):
        aggregated, final = scan_rnn(cell, (source_a, source_b), step_sources,
                                     STEP_ROWS, MASK, initial_state=initial,
                                     scatter=SCATTER, compiled=spec)
        return F.concat([aggregated.reshape(-1), final.reshape(-1)], axis=0)

    module_gradcheck(_make_cell_factory(cell_cls, hidden),
                     [_source_array(), second_source,
                      _initial_state(cell_cls, hidden)],
                     forward=forward, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_compiled_scan_gradcheck_all_invalid_step(dtype):
    """A fully-invalid step must be a no-op in both passes."""
    spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK_WITH_GAP,
                             SCATTER_WITH_GAP)
    assert spec.steps[1].valid_count == 0

    def forward(cell, source, initial):
        aggregated, final = scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS,
                                     MASK_WITH_GAP, initial_state=initial,
                                     scatter=SCATTER_WITH_GAP, compiled=spec)
        return F.concat([aggregated.reshape(-1), final.reshape(-1)], axis=0)

    module_gradcheck(_make_cell_factory(GRUCell, 3),
                     [_source_array(), _initial_state(GRUCell, 3)],
                     forward=forward, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_compiled_scan_gradcheck_hole_and_never_valid_path(dtype):
    """A path invalid at a step inside its live prefix keeps its state
    through that step, and a path never valid is never touched."""
    spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK_WITH_HOLE,
                             SCATTER_WITH_HOLE)
    assert spec.steps[1].invalid_mask is not None

    def forward(cell, source, initial):
        aggregated, final = scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS,
                                     MASK_WITH_HOLE, initial_state=initial,
                                     scatter=SCATTER_WITH_HOLE, compiled=spec)
        return F.concat([aggregated.reshape(-1), final.reshape(-1)], axis=0)

    module_gradcheck(_make_cell_factory(GRUCell, 3),
                     [_source_array(), _initial_state(GRUCell, 3)],
                     forward=forward, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_compiled_scan_gradcheck_single_path_bucket(dtype):
    """A bucket holding a single path (the planner's smallest bucket)."""
    step_rows = STEP_ROWS[:1]
    mask = MASK[:1]
    scatter = _scatter_spec(mask)
    spec = compile_scan_spec(STEP_SOURCES, step_rows, mask, scatter)

    def forward(cell, source, initial):
        aggregated, final = scan_rnn(cell, (source,), STEP_SOURCES, step_rows,
                                     mask, initial_state=initial,
                                     scatter=scatter, compiled=spec)
        return F.concat([aggregated.reshape(-1), final.reshape(-1)], axis=0)

    module_gradcheck(_make_cell_factory(GRUCell, 3),
                     [_source_array(), _initial_state(GRUCell, 3, num_paths=1)],
                     forward=forward, dtype=dtype)


# --------------------------------------------------------------------- #
# Equivalence with the interpreted streaming scan
# --------------------------------------------------------------------- #
def _run_both_modes(cell_cls, hidden, step_sources, step_rows, mask, scatter):
    """Run the identical scan compiled and interpreted; return outputs+grads."""
    spec = compile_scan_spec(step_sources, step_rows, mask, scatter)

    def run(compiled):
        cell = _make_cell_factory(cell_cls, hidden)()
        source = Tensor(_source_array(), requires_grad=True)
        initial = Tensor(_initial_state(cell_cls, hidden, step_rows.shape[0]),
                         requires_grad=True)
        aggregated, final = scan_rnn(cell, (source,), step_sources, step_rows,
                                     mask, initial_state=initial,
                                     scatter=scatter, compiled=compiled)
        weights = np.random.default_rng(17).normal(
            size=NUM_SEGMENTS * final.shape[1] + initial.data.size)
        combined = F.concat([aggregated.reshape(-1), final.reshape(-1)], axis=0)
        (combined * weights).sum().backward()
        grads = {name: p.grad.copy() for name, p in cell.named_parameters()}
        return (aggregated.data.copy(), final.data.copy(),
                source.grad.copy(), initial.grad.copy(), grads)

    return run(spec), run(None)


@pytest.mark.parametrize("mask,scatter", [
    (MASK, SCATTER),
    (MASK_WITH_GAP, SCATTER_WITH_GAP),
    (MASK_WITH_HOLE, SCATTER_WITH_HOLE),
], ids=["ragged", "all-invalid-step", "hole-and-never-valid"])
@pytest.mark.parametrize("cell_cls,hidden", [(GRUCell, 3)])
def test_compiled_matches_interpreted(cell_cls, hidden, mask, scatter):
    """Compiled forward values and all gradients match the interpreted scan."""
    compiled, interpreted = _run_both_modes(cell_cls, hidden, STEP_SOURCES,
                                            STEP_ROWS, mask, scatter)
    agg_c, final_c, source_c, init_c, params_c = compiled
    agg_i, final_i, source_i, init_i, params_i = interpreted
    forward_tol = float_tolerance(1e-12, 1e-6)
    grad_tol = float_tolerance(1e-10, 1e-5)
    np.testing.assert_allclose(agg_c, agg_i, atol=forward_tol, rtol=forward_tol)
    np.testing.assert_allclose(final_c, final_i, atol=forward_tol, rtol=forward_tol)
    np.testing.assert_allclose(source_c, source_i, atol=grad_tol, rtol=grad_tol)
    np.testing.assert_allclose(init_c, init_i, atol=grad_tol, rtol=grad_tol)
    for name in params_i:
        np.testing.assert_allclose(params_c[name], params_i[name],
                                   atol=grad_tol, rtol=grad_tol, err_msg=name)


def test_compiled_matches_interpreted_ragged_final_bucket():
    """Trailing steps that keep only one path alive (ragged final bucket)."""
    mask = np.array([[1, 1, 1, 1],
                     [1, 0, 0, 0],
                     [1, 1, 0, 0]], dtype=np.float64)
    scatter = _scatter_spec(mask)
    compiled, interpreted = _run_both_modes(GRUCell, 3, STEP_SOURCES,
                                            STEP_ROWS, mask, scatter)
    tol = float_tolerance(1e-10, 1e-5)
    for computed, reference in zip(compiled, interpreted):
        if isinstance(computed, dict):
            for name in reference:
                np.testing.assert_allclose(computed[name], reference[name],
                                           atol=tol, rtol=tol, err_msg=name)
        else:
            np.testing.assert_allclose(computed, reference, atol=tol, rtol=tol)


def test_compiled_scan_streams_under_no_grad():
    """Inference path: plain tensors out, no graph, values identical."""
    spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK, SCATTER)
    cell = _make_cell_factory(GRUCell, 3)()
    source = Tensor(_source_array(), requires_grad=True)
    initial = Tensor(_initial_state(GRUCell, 3))
    initial_copy = initial.data.copy()
    with no_grad():
        aggregated, final = scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS,
                                     MASK, initial_state=initial,
                                     scatter=SCATTER, compiled=spec)
    assert not aggregated.requires_grad and not final.requires_grad
    assert aggregated._parents == () and final._parents == ()
    # The double-buffered stepping must never recycle the caller's state.
    np.testing.assert_array_equal(initial.data, initial_copy)
    reference_agg, reference_final = scan_rnn(
        cell, (source,), STEP_SOURCES, STEP_ROWS, MASK, initial_state=initial,
        scatter=SCATTER, compiled=spec)
    np.testing.assert_allclose(aggregated.data, reference_agg.data, atol=1e-12)
    np.testing.assert_allclose(final.data, reference_final.data, atol=1e-12)


# --------------------------------------------------------------------- #
# The live prefix
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("mask,order", [
    (MASK, [0, 2, 1]),
    (MASK_WITH_GAP, [0, 2, 1]),
    (MASK_WITH_HOLE, [2, 1, 0]),
], ids=["ragged", "all-invalid-step", "hole-and-never-valid"])
def test_spec_orders_paths_longest_lived_first(mask, order):
    """Paths are ordered by their last valid step, longest-lived first, and
    each step's ``live`` counts the paths valid at that step or later."""
    spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS, mask)
    np.testing.assert_array_equal(spec.order, order)
    np.testing.assert_array_equal(spec.order[spec.inverse], np.arange(NUM_PATHS))
    np.testing.assert_array_equal(spec.inverse[spec.order], np.arange(NUM_PATHS))
    valid = mask > 0
    for step, plan in enumerate(spec.steps):
        assert plan.live == int(valid[:, step:].any(axis=1).sum())
        assert plan.valid_count == int(valid[:, step].sum())
        if plan.valid_count:
            # The prefix holds every valid path and reads their rows.
            assert valid[spec.order[plan.live:], step].sum() == 0
            np.testing.assert_array_equal(
                plan.rows, STEP_ROWS[spec.order[:plan.live], step])


def test_never_valid_path_keeps_its_state_and_gradient():
    """A path with no valid step leaves the scan as it entered: its final
    state is its initial state, and its gradient passes through unchanged."""
    kernel = compile_step_kernel(_make_cell_factory(GRUCell, 3)())
    spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK_WITH_HOLE,
                             SCATTER_WITH_HOLE)
    initial_array = _initial_state(GRUCell, 3)
    source = Tensor(_source_array(), requires_grad=True)
    initial = Tensor(initial_array, requires_grad=True)
    aggregated, final = run_compiled_scan(kernel, (source,), initial, spec,
                                          SCATTER_WITH_HOLE)
    np.testing.assert_array_equal(final.data[0], initial_array[0])
    upstream = np.random.default_rng(31).normal(size=final.shape)
    ((final * upstream).sum() + aggregated.sum()).backward()
    np.testing.assert_array_equal(initial.grad[0], upstream[0])
    assert np.all(initial.grad[1:] != upstream[1:])


@pytest.mark.parametrize("mask,scatter", [
    (MASK, SCATTER),
    (MASK_WITH_GAP, SCATTER_WITH_GAP),
    (MASK_WITH_HOLE, SCATTER_WITH_HOLE),
], ids=["ragged", "all-invalid-step", "hole-and-never-valid"])
def test_no_grad_forward_equals_grad_forward_bitwise(mask, scatter):
    """Inference double-buffers its live prefix through scratch arrays and
    training keeps a checkpoint per step; the outputs are the same bits."""
    cell = _make_cell_factory(GRUCell, 3)()
    spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS, mask, scatter)
    source = Tensor(_source_array(), requires_grad=True)
    initial = Tensor(_initial_state(GRUCell, 3), requires_grad=True)
    with no_grad():
        inferred = scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS, mask,
                            initial_state=initial, scatter=scatter,
                            compiled=spec)
    trained = scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS, mask,
                       initial_state=initial, scatter=scatter, compiled=spec)
    assert trained[1].requires_grad and not inferred[1].requires_grad
    for computed, reference in zip(inferred, trained):
        np.testing.assert_array_equal(computed.data, reference.data)


def test_scatter_rows_outside_the_live_prefix_are_rejected():
    """The executor holds only the live prefix, so an emission from a path
    that has no valid step left is refused when the spec is compiled."""
    scatter = ScanScatter(
        rows=[np.array([0], dtype=np.int64)] + [None] * (NUM_STEPS - 1),
        segment_ids=[np.array([0], dtype=np.int64)] + [None] * (NUM_STEPS - 1),
        num_segments=NUM_SEGMENTS)
    with pytest.raises(ValueError, match="later one"):
        compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK_WITH_HOLE, scatter)


# --------------------------------------------------------------------- #
# The gate-major kernel's sigmoid, layout and buffers
# --------------------------------------------------------------------- #
def _where_sigmoid(x: np.ndarray) -> np.ndarray:
    """The branch-free ``np.where`` form the kernel's sigmoid replaced."""
    decay = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + decay), decay / (1.0 + decay))


@pytest.mark.parametrize("dtype,extreme,bound", [
    ("float64", 1e4, 4.5e-16),
    ("float32", 100.0, 1.2e-7),
], ids=["float64", "float32"])
def test_inplace_sigmoid_matches_where_form(dtype, extreme, bound):
    """``0.5·tanh(0.5·x) + 0.5`` in place is within rounding of the
    ``np.where`` form, and raises no floating-point error even where that
    form's ``exp`` underflows."""
    rng = np.random.default_rng(23)
    x = np.concatenate([np.linspace(-40.0, 40.0, 20001),
                        rng.normal(scale=6.0, size=20000),
                        [-extreme, -50.0, -0.0, 0.0, 50.0, extreme]]).astype(dtype)
    with np.errstate(under="ignore"):
        reference = _where_sigmoid(x)
    result = x.copy()
    with np.errstate(all="raise"):
        returned = _sigmoid_(result)
    assert returned is result and result.dtype == np.dtype(dtype)
    assert np.max(np.abs(result - reference)) <= bound
    assert result[-1] == 1.0 and 0.0 <= result[-6] < bound


def _direct_scan(kernel, spec, source, initial, scatter):
    """One ``run_compiled_scan`` call on fresh tensors; outputs and grads."""
    source = Tensor(source, requires_grad=True)
    initial = Tensor(initial, requires_grad=True)
    aggregated, final = run_compiled_scan(kernel, (source,), initial, spec, scatter)
    weights = np.random.default_rng(19).normal(size=aggregated.data.size)
    ((aggregated.reshape(-1) * weights).sum() + final.sum()).backward()
    # Each pass hands its scratch back: the autograd node keeps the kernel
    # alive until the optimiser step.
    assert not kernel._scratch
    grads = {name: p.grad.copy() for name, p in kernel.cell.named_parameters()}
    for parameter in kernel.cell.parameters():
        parameter.grad = None
    return aggregated.data, final.data, source.grad, initial.grad, grads


@pytest.mark.parametrize("grad", [False, True], ids=["no-grad", "grad"])
def test_compiled_scan_outputs_are_row_major_and_initial_state_untouched(grad):
    """The scan runs gate-major inside, but hands back C-contiguous
    ``(paths, hidden)`` final states and ``(segments, hidden)`` aggregates
    and never writes the caller's initial state."""
    cell = _make_cell_factory(GRUCell, 3)()
    spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK, SCATTER)
    source = Tensor(_source_array(), requires_grad=grad)
    initial_array = _initial_state(GRUCell, 3)
    initial_copy = initial_array.copy()
    initial = Tensor(initial_array, requires_grad=grad)
    kernel = compile_step_kernel(cell)
    if grad:
        aggregated, final = run_compiled_scan(kernel, (source,), initial, spec, SCATTER)
        (aggregated.sum() + final.sum()).backward()
        assert initial.grad.flags.c_contiguous and initial.grad.shape == (NUM_PATHS, 3)
    else:
        with no_grad():
            aggregated, final = run_compiled_scan(kernel, (source,), initial, spec,
                                                  SCATTER)
    assert final.shape == (NUM_PATHS, 3) and final.data.flags.c_contiguous
    assert aggregated.shape == (NUM_SEGMENTS, 3) and aggregated.data.flags.c_contiguous
    assert not np.shares_memory(final.data, initial_array)
    np.testing.assert_array_equal(initial.data, initial_copy)


def test_reused_kernel_buffers_carry_nothing_between_calls():
    """One kernel over a 3-path batch, a 1-path batch, then the 3-path batch
    again: the repeat equals the first call exactly, outputs and grads."""
    kernel = compile_step_kernel(_make_cell_factory(GRUCell, 3)())
    spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK, SCATTER)
    small_scatter = _scatter_spec(MASK[:1])
    small_spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS[:1], MASK[:1],
                                   small_scatter)
    first = _direct_scan(kernel, spec, _source_array(), _initial_state(GRUCell, 3),
                         SCATTER)
    small = _direct_scan(kernel, small_spec, _source_array(seed=29),
                         _initial_state(GRUCell, 3, num_paths=1), small_scatter)
    repeat = _direct_scan(kernel, spec, _source_array(), _initial_state(GRUCell, 3),
                          SCATTER)
    assert small[1].shape == (1, 3)
    for computed, reference in zip(repeat, first):
        if isinstance(reference, dict):
            for name in reference:
                np.testing.assert_array_equal(computed[name], reference[name],
                                              err_msg=name)
        else:
            np.testing.assert_array_equal(computed, reference)


def test_spec_reading_past_a_source_is_rejected():
    """The per-step gathers skip bounds checks, so a source smaller than the
    rows the spec reads is refused before the scan starts."""
    cell = _make_cell_factory(GRUCell, 3)()
    spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK)
    assert spec.source_rows == {0: int(STEP_ROWS.max()) + 1}
    short_source = Tensor(_source_array()[:int(STEP_ROWS.max())])
    with pytest.raises(IndexError, match="rows"):
        scan_rnn(cell, (short_source,), STEP_SOURCES, STEP_ROWS, MASK,
                 compiled=spec)
    with pytest.raises(ValueError, match="non-negative"):
        compile_scan_spec(STEP_SOURCES, -STEP_ROWS - 1, MASK)


# --------------------------------------------------------------------- #
# Fallback and validation
# --------------------------------------------------------------------- #
class _TanhCell(RNNCellBase):
    """A cell with no compiled kernel — must fall back to the tape."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator = None) -> None:
        super().__init__(input_size, hidden_size)
        generator = rng if rng is not None else np.random.default_rng()
        self.weight = Parameter(
            glorot_uniform((input_size, hidden_size), rng=generator),
            name="weight")

    def forward(self, inputs, state):
        return (inputs.matmul(self.weight) + state).tanh()


def test_unknown_cell_has_no_kernel_and_falls_back():
    """A custom cell and the LSTM cell have no kernel: a compiled spec runs
    them through the interpreted scan, bit for bit, with gradients."""
    spec = compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK, SCATTER)
    cells = [(_TanhCell(INPUT_DIM, 3, rng=np.random.default_rng(3)),
              np.zeros((NUM_PATHS, 3))),
             (_make_cell_factory(LSTMCell, 2)(), _initial_state(LSTMCell, 2))]
    for cell, initial_array in cells:
        assert compile_step_kernel(cell) is None
        source = Tensor(_source_array(), requires_grad=True)
        initial = Tensor(initial_array)
        compiled_agg, compiled_final = scan_rnn(
            cell, (source,), STEP_SOURCES, STEP_ROWS, MASK,
            initial_state=initial, scatter=SCATTER, compiled=spec)
        plain_agg, plain_final = scan_rnn(
            cell, (source,), STEP_SOURCES, STEP_ROWS, MASK,
            initial_state=initial, scatter=SCATTER)
        np.testing.assert_array_equal(compiled_agg.data, plain_agg.data)
        np.testing.assert_array_equal(compiled_final.data, plain_final.data)
        # The fallback is a real tape: gradients flow.
        compiled_final.sum().backward()
        assert source.grad is not None


def test_kernel_not_compiled_for_subclasses():
    """Subclasses may override forward(), so only the exact classes compile."""
    class TweakedGRU(GRUCell):
        pass

    assert compile_step_kernel(TweakedGRU(INPUT_DIM, 3)) is None


def test_spec_shape_mismatch_rejected():
    cell = _make_cell_factory(GRUCell, 3)()
    source = Tensor(_source_array())
    small_spec = compile_scan_spec(STEP_SOURCES[:2], STEP_ROWS[:, :2],
                                   MASK[:, :2], None)
    with pytest.raises(ValueError, match="compiled spec"):
        scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS, MASK,
                 compiled=small_spec)


def test_spec_scatter_mismatch_rejected():
    cell = _make_cell_factory(GRUCell, 3)()
    source = Tensor(_source_array())
    spec_with_scatter = compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK, SCATTER)
    with pytest.raises(ValueError, match="disagree"):
        scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS, MASK,
                 compiled=spec_with_scatter)
    spec_without = compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK, None)
    with pytest.raises(ValueError, match="disagree"):
        scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS, MASK,
                 scatter=SCATTER, compiled=spec_without)


def test_compile_scan_spec_validates_shapes():
    with pytest.raises(ValueError):
        compile_scan_spec(STEP_SOURCES, STEP_ROWS.ravel(), MASK)
    with pytest.raises(ValueError):
        compile_scan_spec(STEP_SOURCES, STEP_ROWS, MASK[:, :2])
