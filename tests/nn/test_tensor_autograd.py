"""Gradient-correctness tests for the autograd Tensor.

Every differentiable operation is checked against central finite differences
on random inputs; structural behaviours (broadcasting, graph reuse, no_grad)
get dedicated tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import (no_grad as _no_grad, is_grad_enabled as _is_grad_enabled,
                             zeros as _zeros, ones as _ones, randn as _randn)


class _T:
    no_grad = staticmethod(_no_grad)
    is_grad_enabled = staticmethod(_is_grad_enabled)
    zeros = staticmethod(_zeros)
    ones = staticmethod(_ones)
    randn = staticmethod(_randn)


T = _T
from repro.nn.tensor import Tensor, concat, segment_mean, segment_sum, stack, where


def numerical_gradient(fn, x: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        plus = fn(x)
        flat[i] = original - epsilon
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * epsilon)
    return grad


def check_gradient(make_output, x_value: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autograd gradient with the numerical gradient for ``make_output``."""
    x = Tensor(x_value.copy(), requires_grad=True)
    out = make_output(x)
    out.backward()

    def scalar_fn(value: np.ndarray) -> float:
        return float(make_output(Tensor(value)).data)

    expected = numerical_gradient(scalar_fn, x_value.copy())
    np.testing.assert_allclose(x.grad, expected, atol=atol, rtol=1e-4)


RNG = np.random.default_rng(7)


class TestElementwiseGradients:
    def test_add_mul(self):
        check_gradient(lambda x: ((x * 3.0 + 2.0) * x).sum(), RNG.normal(size=(4, 3)))

    def test_sub_div(self):
        check_gradient(lambda x: ((x - 1.5) / (x * x + 2.0)).sum(), RNG.normal(size=(3, 3)))

    def test_pow(self):
        check_gradient(lambda x: (x ** 3).sum(), RNG.normal(size=(5,)))

    def test_neg(self):
        check_gradient(lambda x: (-x * 2.0).sum(), RNG.normal(size=(2, 2)))

    def test_exp_log(self):
        check_gradient(lambda x: (x.exp() + (x * x + 1.0).log()).sum(), RNG.normal(size=(6,)))

    def test_tanh(self):
        check_gradient(lambda x: x.tanh().sum(), RNG.normal(size=(4, 2)))

    def test_sigmoid(self):
        check_gradient(lambda x: x.sigmoid().sum(), RNG.normal(size=(4, 2)))

    def test_relu(self):
        # Keep values away from the kink at 0.
        values = RNG.normal(size=(4, 3))
        values[np.abs(values) < 0.1] = 0.5
        check_gradient(lambda x: x.relu().sum(), values)

    def test_softplus(self):
        check_gradient(lambda x: x.softplus().sum(), RNG.normal(size=(7,)))

    def test_abs(self):
        values = RNG.normal(size=(5,))
        values[np.abs(values) < 0.1] = 0.7
        check_gradient(lambda x: x.abs().sum(), values)

    def test_sqrt(self):
        check_gradient(lambda x: (x * x + 1.0).sqrt().sum(), RNG.normal(size=(5,)))

    def test_clip(self):
        values = RNG.normal(size=(8,)) * 3
        values[np.abs(np.abs(values) - 1.0) < 0.05] = 0.0
        check_gradient(lambda x: x.clip(-1.0, 1.0).sum(), values)

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor(np.array([-500.0, 500.0]))
        out = x.sigmoid()
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)


class TestMatmulAndReductions:
    def test_matmul_left(self):
        right = RNG.normal(size=(3, 2))
        check_gradient(lambda x: (x.matmul(right)).sum(), RNG.normal(size=(4, 3)))

    def test_matmul_right(self):
        left = Tensor(RNG.normal(size=(4, 3)))
        check_gradient(lambda x: (left.matmul(x) ** 2).sum(), RNG.normal(size=(3, 2)))

    def test_mean_axis(self):
        check_gradient(lambda x: (x.mean(axis=0) ** 2).sum(), RNG.normal(size=(5, 3)))

    def test_sum_keepdims(self):
        check_gradient(lambda x: (x.sum(axis=1, keepdims=True) * x).sum(), RNG.normal(size=(4, 3)))

    def test_max(self):
        values = RNG.normal(size=(4, 3))
        check_gradient(lambda x: x.max(axis=1).sum(), values)

    def test_broadcast_add(self):
        bias = RNG.normal(size=(3,))
        check_gradient(lambda x: ((x + bias) ** 2).sum(), RNG.normal(size=(4, 3)))

    def test_broadcast_grad_shape(self):
        a = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        ((a * b).sum()).backward()
        assert a.grad.shape == (4, 3)
        assert b.grad.shape == (3,)


class TestShapeOps:
    def test_reshape(self):
        check_gradient(lambda x: (x.reshape(6) ** 2).sum(), RNG.normal(size=(2, 3)))

    def test_transpose(self):
        weight = RNG.normal(size=(4, 2))
        check_gradient(lambda x: (x.transpose().matmul(weight)).sum(), RNG.normal(size=(4, 3)))

    def test_getitem_slice(self):
        check_gradient(lambda x: (x[1:3, :] ** 2).sum(), RNG.normal(size=(5, 2)))

    def test_getitem_column(self):
        check_gradient(lambda x: (x[:, 0] * 2.0).sum(), RNG.normal(size=(4, 3)))

    def test_gather(self):
        indices = np.array([0, 2, 2, 1])
        check_gradient(lambda x: (x.gather(indices) ** 2).sum(), RNG.normal(size=(3, 4)))

    def test_gather_2d_indices(self):
        indices = np.array([[0, 1], [2, 0]])
        check_gradient(lambda x: (x.gather(indices) ** 2).sum(), RNG.normal(size=(3, 2)))

    def test_gather_values(self):
        out = Tensor(np.arange(6).reshape(3, 2)).gather(np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[4, 5], [0, 1]])

    def test_concat(self):
        b = Tensor(RNG.normal(size=(2, 3)))
        check_gradient(lambda x: (concat([x, b], axis=0) ** 2).sum(), RNG.normal(size=(3, 3)))

    def test_stack(self):
        b = Tensor(RNG.normal(size=(3,)))
        check_gradient(lambda x: (stack([x, b], axis=0) ** 2).sum(), RNG.normal(size=(3,)))

    def test_squeeze_expand(self):
        check_gradient(lambda x: (x.expand_dims(1).squeeze(1) ** 2).sum(), RNG.normal(size=(4,)))


class TestSegmentOps:
    def test_segment_sum_values(self):
        data = Tensor(np.arange(12, dtype=float).reshape(6, 2))
        ids = np.array([0, 0, 1, 2, 2, 2])
        out = segment_sum(data, ids, 3)
        expected = np.array([[2.0, 4.0], [4.0, 5.0], [24.0, 27.0]])
        np.testing.assert_allclose(out.data, expected)

    def test_segment_sum_gradient(self):
        ids = np.array([0, 1, 1, 0, 2])
        check_gradient(lambda x: (segment_sum(x, ids, 3) ** 2).sum(), RNG.normal(size=(5, 2)))

    def test_segment_sum_empty_segment(self):
        data = Tensor(np.ones((2, 2)))
        out = segment_sum(data, np.array([0, 2]), 4)
        np.testing.assert_allclose(out.data[1], 0.0)
        np.testing.assert_allclose(out.data[3], 0.0)

    def test_segment_mean(self):
        data = Tensor(np.array([[2.0], [4.0], [6.0]]))
        out = segment_mean(data, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [6.0]])

    def test_segment_sum_rejects_bad_ids(self):
        data = Tensor(np.ones((3, 1)))
        with pytest.raises(ValueError):
            segment_sum(data, np.array([0, 1, 5]), 3)

    def test_segment_sum_rejects_wrong_length(self):
        data = Tensor(np.ones((3, 1)))
        with pytest.raises(ValueError):
            segment_sum(data, np.array([0, 1]), 3)


class TestWhere:
    def test_where_gradient(self):
        condition = np.array([True, False, True, False])
        b = Tensor(RNG.normal(size=(4,)))
        check_gradient(lambda x: (where(condition, x * 2.0, b) ** 2).sum(), RNG.normal(size=(4,)))

    def test_where_selects(self):
        out = where(np.array([True, False]), Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        np.testing.assert_allclose(out.data, [1.0, 2.0])


class TestGraphMechanics:
    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with T.no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_grad_disabled_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("boom")
        assert T.is_grad_enabled()

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_explicit_grad_shape_checked(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        with pytest.raises(ValueError):
            y.backward(np.ones(4))

    def test_detach_breaks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x.sum()).backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_item_and_len(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_factories(self):
        assert T.zeros((2, 2)).data.sum() == 0.0
        assert T.ones((2, 2)).data.sum() == 4.0
        assert T.randn((3, 3), rng=np.random.default_rng(0)).shape == (3, 3)

    def test_explicit_dtype_wins_over_input_dtype(self):
        from repro.nn.tensor import default_dtype
        source = Tensor(np.ones(3))  # float64
        assert Tensor(source, dtype="float32").dtype == np.float32
        assert Tensor(np.ones(3, dtype=np.float64), dtype="float32").dtype == np.float32
        # Without an explicit dtype, float arrays keep theirs even when the
        # ambient default differs.
        with default_dtype("float32"):
            assert Tensor(np.ones(3, dtype=np.float64)).dtype == np.float64
            assert Tensor([1.0, 2.0]).dtype == np.float32


class TestHypothesisProperties:
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_sum_linearity(self, values):
        x = Tensor(np.array(values), requires_grad=True)
        (x.sum() * 2.0).backward()
        np.testing.assert_allclose(x.grad, 2.0 * np.ones(len(values)))

    @given(st.integers(2, 20), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_segment_sum_preserves_total(self, rows, cols):
        rng = np.random.default_rng(rows * 31 + cols)
        data = rng.normal(size=(rows, cols))
        ids = rng.integers(0, 4, size=rows)
        out = segment_sum(Tensor(data), ids, 4)
        np.testing.assert_allclose(out.data.sum(axis=0), data.sum(axis=0), atol=1e-9)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_tanh_bounded(self, values):
        out = Tensor(np.array(values)).tanh()
        assert np.all(np.abs(out.data) <= 1.0)
