"""Parametric gradient checks: every op × both dtypes, via the harness.

Complements ``test_tensor_autograd.py`` (float64-only, structural cases):
here every differentiable Tensor operation, the fused masked-update nodes
and the GRU cell are verified against
float64 central differences in **float64 and float32**, and their outputs
are required to carry the requested dtype (catching silent upcasts).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.recurrent import GRUCell, run_rnn_over_sequence
from repro.nn.tensor import (
    Tensor,
    concat,
    gather_segment_sum,
    masked_where,
    segment_mean,
    segment_sum,
    stack,
    where,
)

from tests.nn.gradcheck import gradcheck, module_gradcheck

RNG = np.random.default_rng(42)
DTYPES = ["float64", "float32"]


def _away_from(values: np.ndarray, point: float, margin: float = 0.2) -> np.ndarray:
    """Nudge entries within ``margin`` of a kink so finite differences hold."""
    values = values.copy()
    values[np.abs(values - point) < margin] += 2 * margin
    return values


# --------------------------------------------------------------------- #
# One case per Tensor operation: (id, fn, input arrays)
# --------------------------------------------------------------------- #
_MAT_A = RNG.normal(size=(4, 3))
_SEGMENT_IDS = np.array([0, 2, 2, 1, 0])
_GATHER_IDS = np.array([0, 2, 2, 1])
_GATHER_IDS_2D = np.array([[0, 1], [2, 0]])
_ENTRY_ROWS = np.array([0, 0, 1, 2, 3, 3])
_ENTRY_COLS = np.array([0, 1, 1, 0, 0, 1])
_ENTRY_SEGMENTS = np.array([0, 1, 0, 2, 2, 1])
_ROW_MASK = np.array([True, False, True, True, False])
_WHERE_COND = RNG.normal(size=(4, 3)) > 0

OP_CASES = [
    ("add_broadcast", lambda a, b: a + b, [RNG.normal(size=(4, 3)), RNG.normal(size=(3,))]),
    ("radd_scalar", lambda a: 2.5 + a, [RNG.normal(size=(3, 2))]),
    ("sub", lambda a, b: a - b, [RNG.normal(size=(4,)), RNG.normal(size=(4,))]),
    ("rsub_scalar", lambda a: 1.0 - a, [RNG.normal(size=(5,))]),
    ("neg", lambda a: -a, [RNG.normal(size=(3, 2))]),
    ("mul_broadcast", lambda a, b: a * b, [RNG.normal(size=(4, 3)), RNG.normal(size=(4, 1))]),
    ("rmul_scalar", lambda a: 3.0 * a, [RNG.normal(size=(4,))]),
    ("div", lambda a, b: a / b,
     [RNG.normal(size=(3, 3)), _away_from(RNG.normal(size=(3, 3)), 0.0, 0.5)]),
    ("rdiv_scalar", lambda a: 2.0 / a, [_away_from(RNG.normal(size=(4,)), 0.0, 0.5)]),
    ("pow", lambda a: a ** 3, [RNG.normal(size=(5,))]),
    ("matmul_22", lambda a, b: a.matmul(b), [_MAT_A, RNG.normal(size=(3, 2))]),
    ("matmul_21", lambda a, b: a.matmul(b), [_MAT_A, RNG.normal(size=(3,))]),
    ("matmul_12", lambda a, b: a.matmul(b), [RNG.normal(size=(4,)), RNG.normal(size=(4, 2))]),
    ("sum_all", lambda a: a.sum(), [RNG.normal(size=(3, 4))]),
    ("sum_axis_keepdims", lambda a: a.sum(axis=1, keepdims=True) * a,
     [RNG.normal(size=(4, 3))]),
    ("mean_axis", lambda a: a.mean(axis=0), [RNG.normal(size=(5, 3))]),
    ("max_axis", lambda a: a.max(axis=1), [RNG.normal(size=(4, 3))]),
    ("max_all", lambda a: a.max(), [RNG.normal(size=(7,))]),
    ("exp", lambda a: a.exp(), [RNG.normal(size=(6,))]),
    ("log", lambda a: (a * a + 1.0).log(), [RNG.normal(size=(6,))]),
    ("sqrt", lambda a: (a * a + 1.0).sqrt(), [RNG.normal(size=(5,))]),
    ("abs", lambda a: a.abs(), [_away_from(RNG.normal(size=(6,)), 0.0)]),
    ("tanh", lambda a: a.tanh(), [RNG.normal(size=(4, 2))]),
    ("sigmoid", lambda a: a.sigmoid(), [RNG.normal(size=(4, 2))]),
    ("relu", lambda a: a.relu(), [_away_from(RNG.normal(size=(4, 3)), 0.0)]),
    ("softplus", lambda a: a.softplus(), [RNG.normal(size=(7,))]),
    ("clip", lambda a: a.clip(-1.0, 1.0),
     [_away_from(_away_from(3 * RNG.normal(size=(8,)), 1.0), -1.0)]),
    ("reshape", lambda a: a.reshape(6), [RNG.normal(size=(2, 3))]),
    ("flatten", lambda a: a.flatten(), [RNG.normal(size=(2, 2, 2))]),
    ("squeeze", lambda a: a.squeeze(1), [RNG.normal(size=(4, 1, 2))]),
    ("expand_dims", lambda a: a.expand_dims(1) * 2.0, [RNG.normal(size=(4,))]),
    ("transpose", lambda a: a.transpose(), [RNG.normal(size=(3, 4))]),
    ("transpose_axes", lambda a: a.transpose((1, 2, 0)), [RNG.normal(size=(2, 3, 2))]),
    ("getitem_slice", lambda a: a[1:3, :], [RNG.normal(size=(5, 2))]),
    ("getitem_advanced", lambda a: a[(_ENTRY_ROWS[:4], _ENTRY_COLS[:4])],
     [RNG.normal(size=(4, 2))]),
    ("gather_1d", lambda a: a.gather(_GATHER_IDS), [RNG.normal(size=(3, 4))]),
    ("gather_2d", lambda a: a.gather(_GATHER_IDS_2D), [RNG.normal(size=(3, 2))]),
    ("concat", lambda a, b: concat([a, b], axis=0),
     [RNG.normal(size=(3, 3)), RNG.normal(size=(2, 3))]),
    ("stack", lambda a, b: stack([a, b], axis=1),
     [RNG.normal(size=(3,)), RNG.normal(size=(3,))]),
    ("where", lambda a, b: where(_WHERE_COND, a, b),
     [RNG.normal(size=(4, 3)), RNG.normal(size=(4, 3))]),
    ("masked_where", lambda a, b: masked_where(_ROW_MASK, a, b),
     [RNG.normal(size=(5, 3)), RNG.normal(size=(5, 3))]),
    ("segment_sum", lambda a: segment_sum(a, _SEGMENT_IDS, 3), [RNG.normal(size=(5, 2))]),
    ("segment_mean", lambda a: segment_mean(a, _SEGMENT_IDS, 4), [RNG.normal(size=(5, 2))]),
    ("gather_segment_sum_rows",
     lambda a: gather_segment_sum(a, _GATHER_IDS, np.array([0, 1, 1, 0]), 2),
     [RNG.normal(size=(3, 4))]),
    ("gather_segment_sum_entries",
     lambda a: gather_segment_sum(a, (_ENTRY_ROWS, _ENTRY_COLS), _ENTRY_SEGMENTS, 3),
     [RNG.normal(size=(4, 2, 3))]),
]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name,fn,arrays", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients(name, fn, arrays, dtype):
    gradcheck(fn, arrays, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_astype_upcast_gradient(dtype):
    # Casting up to float64 keeps the numerical reference noise-free; the
    # output intentionally carries float64 so the dtype check is disabled.
    gradcheck(lambda a: a.astype("float64") * 2.0,
              [RNG.normal(size=(4, 3))], dtype=dtype, check_dtype=False)


def test_astype_downcast_backward_exact():
    # Down-casts cannot be finite-differenced (the float32 rounding swamps
    # the step), but the backward contract is exact: the gradient comes
    # back cast to the source dtype, numerically unchanged.
    x = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    y = x.astype("float32")
    assert y.dtype == np.float32
    cotangent = RNG.normal(size=(3, 2)).astype(np.float32)
    y.backward(cotangent)
    assert x.grad.dtype == np.float64
    np.testing.assert_allclose(x.grad, cotangent.astype(np.float64), rtol=0, atol=0)


# --------------------------------------------------------------------- #
# The GRU cell and the masked sequence scan
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
def test_gru_cell_gradients(dtype):
    module_gradcheck(
        lambda: GRUCell(3, 4, rng=np.random.default_rng(0)),
        [RNG.normal(size=(5, 3)), RNG.normal(size=(5, 4))],
        dtype=dtype,
    )


_SCAN_MASK = np.array([
    [1.0, 1.0, 1.0],
    [1.0, 1.0, 0.0],
    [1.0, 0.0, 0.0],
    [1.0, 1.0, 1.0],
])  # step 0 fully valid (fast path), steps 1-2 ragged (fused masked_where)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("output_index", [0, 1], ids=["outputs", "final_state"])
def test_run_rnn_over_sequence_gradients(dtype, output_index):
    module_gradcheck(
        lambda: GRUCell(3, 4, rng=np.random.default_rng(2)),
        [RNG.normal(size=(4, 3, 3)), RNG.normal(size=(4, 4))],
        forward=lambda cell, sequence, initial: run_rnn_over_sequence(
            cell, sequence, _SCAN_MASK, initial_state=initial)[output_index],
        dtype=dtype,
    )


@pytest.mark.parametrize("dtype", DTYPES)
def test_masked_where_one_sided_gradients(dtype):
    """Only one operand requires grad: the pooled buffer path still splits right."""
    new_values = RNG.normal(size=(5, 3))
    constant_old = Tensor(RNG.normal(size=(5, 3)).astype(np.dtype(dtype)))
    gradcheck(lambda a: masked_where(_ROW_MASK, a, constant_old),
              [new_values], dtype=dtype)
    constant_new = Tensor(RNG.normal(size=(5, 3)).astype(np.dtype(dtype)))
    gradcheck(lambda b: masked_where(_ROW_MASK, constant_new, b),
              [RNG.normal(size=(5, 3))], dtype=dtype)


def test_masked_where_rejects_bad_shapes():
    a = Tensor(np.ones((3, 2)))
    with pytest.raises(ValueError):
        masked_where(np.array([True, False]), a, Tensor(np.ones((3, 2))))
    with pytest.raises(ValueError):
        masked_where(np.array([True, False, True]), a, Tensor(np.ones((2, 2))))


def test_gather_segment_sum_rejects_bad_ids():
    data = Tensor(np.ones((3, 2)))
    with pytest.raises(ValueError):
        gather_segment_sum(data, np.array([0, 1]), np.array([0, 5]), 3)
    with pytest.raises(ValueError):
        gather_segment_sum(data, np.array([0, 1]), np.array([0]), 3)


@pytest.mark.parametrize("dtype", DTYPES)
def test_gather_segment_sum_matches_unfused(dtype):
    """The fused node computes exactly segment_sum(data[idx]) — same forward."""
    data = RNG.normal(size=(4, 2, 3)).astype(np.dtype(dtype))
    fused = gather_segment_sum(Tensor(data), (_ENTRY_ROWS, _ENTRY_COLS),
                               _ENTRY_SEGMENTS, 3)
    unfused = segment_sum(Tensor(data)[(_ENTRY_ROWS, _ENTRY_COLS)],
                          _ENTRY_SEGMENTS, 3)
    np.testing.assert_allclose(fused.data, unfused.data, rtol=1e-6)
    assert fused.dtype == np.dtype(dtype)
