"""Tests for dense layers, the GRU cell and the reference sequence scan."""

import numpy as np
import pytest

from repro import nn
from repro.nn.layers import MLP, Dense, Sequential, get_activation
from repro.nn.recurrent import GRUCell, run_rnn_over_sequence
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(11)


class TestDense:
    def test_output_shape(self):
        layer = Dense(5, 3, rng=RNG)
        out = layer(Tensor(RNG.normal(size=(7, 5))))
        assert out.shape == (7, 3)

    def test_linear_is_affine(self):
        layer = Dense(2, 1, rng=RNG)
        x1 = np.array([[1.0, 0.0]])
        x2 = np.array([[0.0, 1.0]])
        both = np.array([[1.0, 1.0]])
        y1 = layer(Tensor(x1)).data - layer.bias.data
        y2 = layer(Tensor(x2)).data - layer.bias.data
        y_both = layer(Tensor(both)).data - layer.bias.data
        np.testing.assert_allclose(y_both, y1 + y2, atol=1e-10)

    def test_activation_applied(self):
        layer = Dense(3, 4, activation="relu", rng=RNG)
        out = layer(Tensor(RNG.normal(size=(10, 3))))
        assert np.all(out.data >= 0)

    def test_no_bias(self):
        layer = Dense(3, 2, use_bias=False, rng=RNG)
        assert len(layer.parameters()) == 1
        out = layer(Tensor(np.zeros((4, 3))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_wrong_input_dim_raises(self):
        layer = Dense(3, 2, rng=RNG)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((4, 5))))

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            Dense(0, 2)

    def test_gradients_flow_to_weights(self):
        layer = Dense(3, 2, rng=RNG)
        loss = (layer(Tensor(RNG.normal(size=(5, 3)))) ** 2).sum()
        loss.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        assert layer.weight.grad.shape == (3, 2)

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError):
            get_activation("not-an-activation")

    def test_callable_activation_passthrough(self):
        layer = Dense(2, 2, activation=lambda x: x * 0.0, rng=RNG)
        out = layer(Tensor(np.ones((1, 2))))
        np.testing.assert_allclose(out.data, 0.0)


class TestSequentialAndMLP:
    def test_sequential_composition(self):
        model = Sequential([Dense(4, 8, activation="relu", rng=RNG), Dense(8, 1, rng=RNG)])
        out = model(Tensor(RNG.normal(size=(3, 4))))
        assert out.shape == (3, 1)
        assert len(model) == 2
        assert isinstance(model[0], Dense)

    def test_mlp_shapes_and_params(self):
        mlp = MLP(6, [16, 8], 2, rng=RNG)
        out = mlp(Tensor(RNG.normal(size=(5, 6))))
        assert out.shape == (5, 2)
        # 3 dense layers, each with weight + bias.
        assert len(mlp.parameters()) == 6

    def test_mlp_trains_on_toy_regression(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 2))
        y = (x[:, :1] * 2.0 - x[:, 1:] * 0.5 + 0.3)
        mlp = MLP(2, [16], 1, rng=rng)
        optimizer = nn.Adam(mlp.parameters(), learning_rate=0.01)
        first_loss = None
        for _ in range(150):
            optimizer.zero_grad()
            loss = nn.mse_loss(mlp(Tensor(x)), Tensor(y))
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < first_loss * 0.1


class TestGRUCell:
    def test_state_shape(self):
        cell = GRUCell(4, 8, rng=RNG)
        state = cell.initial_state(5)
        new_state = cell(Tensor(RNG.normal(size=(5, 4))), state)
        assert new_state.shape == (5, 8)

    def test_state_bounded_by_tanh_dynamics(self):
        cell = GRUCell(3, 6, rng=RNG)
        state = cell.initial_state(2)
        for _ in range(50):
            state = cell(Tensor(RNG.normal(size=(2, 3))), state)
        assert np.all(np.abs(state.data) <= 1.0 + 1e-9)

    def test_gradient_flows_through_time(self):
        cell = GRUCell(2, 4, rng=RNG)
        state = cell.initial_state(1)
        inputs = Tensor(RNG.normal(size=(1, 2)), requires_grad=True)
        for _ in range(3):
            state = cell(inputs, state)
        state.sum().backward()
        assert inputs.grad is not None
        assert np.abs(inputs.grad).sum() > 0
        assert cell.weight_input.grad is not None

    def test_zero_update_gate_keeps_candidate(self):
        # With all weights zero the update gate is 0.5 and candidate 0, so the
        # state decays towards zero.
        cell = GRUCell(2, 3, rng=RNG)
        for param in cell.parameters():
            param.data = np.zeros_like(param.data)
        state = Tensor(np.ones((1, 3)))
        new_state = cell(Tensor(np.zeros((1, 2))), state)
        np.testing.assert_allclose(new_state.data, 0.5)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            GRUCell(0, 4)


class TestSequenceScan:
    def test_output_shapes(self):
        cell = GRUCell(3, 4, rng=RNG)
        sequence = Tensor(RNG.normal(size=(2, 5, 3)))
        mask = np.ones((2, 5))
        outputs, final = run_rnn_over_sequence(cell, sequence, mask)
        assert outputs.shape == (2, 5, 4)
        assert final.shape == (2, 4)

    def test_mask_freezes_state(self):
        cell = GRUCell(2, 3, rng=RNG)
        sequence = Tensor(RNG.normal(size=(1, 4, 2)))
        # Only the first step is valid; the remaining are padding.
        mask = np.array([[1.0, 0.0, 0.0, 0.0]])
        outputs, final = run_rnn_over_sequence(cell, sequence, mask)
        np.testing.assert_allclose(final.data, outputs.data[:, 0, :])
        np.testing.assert_allclose(outputs.data[:, 3, :], outputs.data[:, 0, :])

    def test_different_lengths_per_sequence(self):
        cell = GRUCell(2, 3, rng=RNG)
        sequence = Tensor(RNG.normal(size=(2, 3, 2)))
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        outputs, final = run_rnn_over_sequence(cell, sequence, mask)
        np.testing.assert_allclose(final.data[1], outputs.data[1, 0, :])

    def test_bad_mask_shape_raises(self):
        cell = GRUCell(2, 3, rng=RNG)
        with pytest.raises(ValueError):
            run_rnn_over_sequence(cell, Tensor(np.zeros((2, 3, 2))), np.ones((3, 2)))

    def test_bad_sequence_rank_raises(self):
        cell = GRUCell(2, 3, rng=RNG)
        with pytest.raises(ValueError):
            run_rnn_over_sequence(cell, Tensor(np.zeros((2, 3))), np.ones((2, 3)))
