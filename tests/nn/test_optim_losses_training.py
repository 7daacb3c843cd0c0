"""Tests for the optimiser, the loss, metrics, serialisation and training history."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import metrics
from repro.nn.layers import MLP, Dense
from repro.nn.module import Module, Parameter
from repro.nn.optimizers import Adam, clip_gradients_by_norm
from repro.nn.serialization import load_parameters, read_checkpoint_metadata, save_checkpoint
from repro.nn.tensor import Tensor
from repro.nn.training import EarlyStopping, History

RNG = np.random.default_rng(21)


class Quadratic(Module):
    """Simple quadratic bowl f(w) = ||w - target||^2 for optimiser tests."""

    def __init__(self, dim=4, target=3.0):
        super().__init__()
        self.w = Parameter(np.zeros(dim))
        self.target = target

    def loss(self) -> Tensor:
        return ((self.w - self.target) ** 2).sum()


def test_adam_converges_on_quadratic():
    model = Quadratic()
    optimizer = Adam(model.parameters(), learning_rate=0.2)
    for _ in range(200):
        optimizer.zero_grad()
        loss = model.loss()
        loss.backward()
        optimizer.step()
    np.testing.assert_allclose(model.w.data, 3.0, atol=0.05)


def test_optimizer_requires_parameters():
    with pytest.raises(ValueError):
        Adam([], learning_rate=0.1)


def test_gradient_clipping_scales_norm():
    params = [Parameter(np.zeros(3))]
    params[0].grad = np.array([3.0, 4.0, 0.0])
    norm_before = clip_gradients_by_norm(params, max_norm=1.0)
    assert norm_before == pytest.approx(5.0)
    assert np.linalg.norm(params[0].grad) == pytest.approx(1.0, rel=1e-6)


def test_gradient_clipping_noop_below_threshold():
    params = [Parameter(np.zeros(2))]
    params[0].grad = np.array([0.3, 0.4])
    clip_gradients_by_norm(params, max_norm=10.0)
    np.testing.assert_allclose(params[0].grad, [0.3, 0.4])


def test_gradient_clipping_empty():
    assert clip_gradients_by_norm([Parameter(np.zeros(2))], 1.0) == 0.0


class TestLosses:
    def test_mse_value(self):
        loss = nn.mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            nn.mse_loss(Tensor([1.0, 2.0]), Tensor([1.0]))

    def test_losses_differentiable(self):
        pred = Tensor(np.array([1.5, 2.5]), requires_grad=True)
        nn.mse_loss(pred, Tensor([1.0, 2.0])).backward()
        np.testing.assert_allclose(pred.grad, [0.5, 0.5])


class TestMetrics:
    def test_relative_errors_signed(self):
        err = metrics.relative_errors([1.2, 0.8], [1.0, 1.0])
        np.testing.assert_allclose(err, [0.2, -0.2], atol=1e-12)

    def test_mean_relative_error(self):
        assert metrics.mean_relative_error([1.2, 0.8], [1.0, 1.0]) == pytest.approx(0.2)

    def test_mape_is_percent(self):
        assert metrics.mean_absolute_percentage_error([1.1], [1.0]) == pytest.approx(10.0)

    def test_pearson_linear(self):
        x = np.linspace(0, 1, 20)
        assert metrics.pearson_correlation(2 * x + 1, x) == pytest.approx(1.0)

    def test_pearson_degenerate(self):
        assert metrics.pearson_correlation([1.0, 1.0], [1.0, 2.0]) == 0.0

    def test_rmse(self):
        assert metrics.root_mean_squared_error([3.0], [0.0]) == pytest.approx(3.0)

    def test_mismatched_sizes_raise(self):
        with pytest.raises(ValueError):
            metrics.mean_relative_error([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(0.1, 100), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_relative_error_zero_for_perfect_predictions(self, targets):
        err = metrics.relative_errors(targets, targets)
        np.testing.assert_allclose(err, 0.0, atol=1e-12)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = MLP(3, [8], 1, rng=np.random.default_rng(0))
        path = save_checkpoint(model, str(tmp_path / "model"))
        clone = MLP(3, [8], 1, rng=np.random.default_rng(99))
        load_parameters(clone, path)
        x = Tensor(RNG.normal(size=(4, 3)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_parameters(MLP(2, [2], 1), str(tmp_path / "missing"))

    def test_strict_mismatch_raises(self, tmp_path):
        model = Dense(2, 2)
        path = save_checkpoint(model, str(tmp_path / "dense"))
        other = Dense(3, 2)
        with pytest.raises((KeyError, ValueError)):
            load_parameters(other, path)

    def test_checkpoint_metadata(self, tmp_path):
        model = Dense(2, 2)
        save_checkpoint(model, str(tmp_path / "ckpt"), metadata={"epoch": 7})
        load_parameters(Dense(2, 2), str(tmp_path / "ckpt"))
        assert read_checkpoint_metadata(str(tmp_path / "ckpt"))["epoch"] == 7

    @pytest.mark.parametrize("failing", ["third-array", "sidecar"])
    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch,
                                                       failing):
        """A save that raises partway, writing its third array or its
        sidecar, leaves the previous weights and metadata loadable and
        no temporary file behind."""
        import json

        import numpy.lib.format as npy_format

        model = MLP(3, [8, 4], 1, rng=np.random.default_rng(0))
        path = save_checkpoint(model, str(tmp_path / "ckpt"), metadata={"epoch": 1})
        previous = model.state_dict()
        for param in model.parameters():
            param.data = param.data + 1.0
        name, real = (("write_array", npy_format.write_array) if failing == "third-array"
                      else ("dump", json.dump))
        calls = []

        def fail_on_third_array_or_sidecar(*args, **kwargs):
            calls.append(name)
            if name == "dump" or len(calls) == 3:
                raise OSError("injected write failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(npy_format if name == "write_array" else json, name,
                            fail_on_third_array_or_sidecar)
        with pytest.raises(OSError, match="injected"):
            save_checkpoint(model, path, metadata={"epoch": 2})
        monkeypatch.undo()

        restored = MLP(3, [8, 4], 1, rng=np.random.default_rng(1))
        load_parameters(restored, path)
        assert read_checkpoint_metadata(path) == {"epoch": 1}
        for key, value in restored.state_dict().items():
            assert np.array_equal(value, previous[key])
        assert sorted(os.listdir(tmp_path)) == ["ckpt.json", "ckpt.npz"]

    def test_state_dict_load_shape_check(self):
        model = Dense(2, 2)
        state = model.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            model.load_state_dict(state)


class TestTrainer:
    """History and EarlyStopping, the parts of the training loop that
    RouteNetTrainer.fit builds on, tested directly."""

    def test_early_stopping_stops(self):
        stopper = EarlyStopping(patience=3, min_delta=1e-6)
        # A loss that never improves: the stopper must fire after patience.
        epochs = 0
        for epoch in range(1, 51):
            epochs = epoch
            if stopper.update(1.0, epoch):
                break
        assert epochs <= 6
        assert stopper.stopped_epoch == epochs

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)

    def test_history_dict(self):
        history = History()
        history.record(1, 0.5, 0.6, 0.1)
        out = history.as_dict()
        assert out["train_loss"] == [0.5]
        assert out["val_loss"] == [0.6]


class TestModuleBasics:
    def test_named_parameters_nested(self):
        model = MLP(2, [3], 1, rng=np.random.default_rng(0))
        names = [name for name, _ in model.named_parameters()]
        assert any("layer0" in n for n in names)
        assert all("." in n for n in names)

    def test_num_parameters(self):
        model = Dense(3, 2)
        assert model.num_parameters() == 3 * 2 + 2

    def test_zero_grad_clears(self):
        model = Dense(2, 1)
        (model(Tensor(np.ones((1, 2)))) ** 2).sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_train_eval_propagates(self):
        model = nn.Sequential([Dense(2, 2), Dense(2, 1)])
        model.eval()
        assert not model.layers[1].training
        model.train()
        assert model.layers[1].training


class TestOptimizerStateDict:
    """The optimiser state must round-trip its moment buffers, not just the
    step count — resuming Adam with zeroed moments applies the bias
    correction 1/(1 - beta**step_count) to the wrong statistics."""

    def test_state_round_trip_restores_buffers(self):
        buffer_names = ("first_moment", "second_moment")
        model = Quadratic()
        optimizer = Adam(model.parameters(), learning_rate=0.05)
        for _ in range(5):
            optimizer.zero_grad()
            model.loss().backward()
            optimizer.step()
        state = optimizer.state_dict()
        assert state["step_count"] == 5
        for name in buffer_names:
            assert name in state
            assert any(np.abs(buffer).max() > 0 for buffer in state[name])

        fresh_model = Quadratic()
        fresh = Adam(fresh_model.parameters(), learning_rate=0.05)
        fresh.load_state_dict(state)
        assert fresh.step_count == 5
        for name in buffer_names:
            for restored, original in zip(getattr(fresh, f"_{name}"),
                                          getattr(optimizer, f"_{name}")):
                assert np.array_equal(restored, original)

    def test_state_dict_is_a_copy(self):
        model = Quadratic()
        optimizer = Adam(model.parameters(), learning_rate=0.05)
        optimizer.zero_grad()
        model.loss().backward()
        optimizer.step()
        state = optimizer.state_dict()
        state["first_moment"][0][...] = 123.0
        assert np.abs(optimizer._first_moment[0]).max() < 100

    def test_resumed_adam_matches_uninterrupted_run(self):
        def run(steps, optimizer=None, model=None):
            model = model if model is not None else Quadratic()
            optimizer = optimizer if optimizer is not None else Adam(
                model.parameters(), learning_rate=0.1)
            for _ in range(steps):
                optimizer.zero_grad()
                model.loss().backward()
                optimizer.step()
            return model, optimizer

        straight_model, _ = run(10)
        half_model, half_optimizer = run(5)
        state = half_optimizer.state_dict()
        resumed_model = Quadratic()
        resumed_model.load_state_dict(half_model.state_dict())
        resumed_optimizer = Adam(resumed_model.parameters(), learning_rate=0.1)
        resumed_optimizer.load_state_dict(state)
        run(5, optimizer=resumed_optimizer, model=resumed_model)
        assert np.array_equal(resumed_model.w.data, straight_model.w.data)

    def test_missing_buffers_raise(self):
        model = Quadratic()
        optimizer = Adam(model.parameters())
        with pytest.raises(KeyError, match="first_moment"):
            optimizer.load_state_dict({"step_count": 3})

    def test_shape_mismatch_raises(self):
        small = Quadratic(dim=2)
        large = Quadratic(dim=4)
        source = Adam(large.parameters(), learning_rate=0.05)
        source.zero_grad()
        large.loss().backward()
        source.step()
        target = Adam(small.parameters(), learning_rate=0.05)
        with pytest.raises(ValueError, match="shape"):
            target.load_state_dict(source.state_dict())

    def test_buffer_count_mismatch_raises(self):
        model = Quadratic()
        optimizer = Adam(model.parameters(), learning_rate=0.05)
        state = optimizer.state_dict()
        state["first_moment"] = state["first_moment"] + [np.zeros(4)]
        with pytest.raises(ValueError, match="buffers"):
            optimizer.load_state_dict(state)


class TestEvaluateModeRestore:
    """RouteNetTrainer.evaluate_loss must leave the model's train/eval mode
    as it found it."""

    @staticmethod
    def _trainer():
        from repro.datasets import DatasetConfig, FeatureNormalizer, generate_dataset
        from repro.models import ExtendedRouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
        from repro.topology import ring_topology

        samples = generate_dataset(ring_topology(4), DatasetConfig(num_samples=1, seed=3))
        normalizer = FeatureNormalizer().fit(samples)
        model = ExtendedRouteNet(RouteNetConfig(
            link_state_dim=4, path_state_dim=4, node_state_dim=4,
            message_passing_iterations=1, seed=3))
        return (RouteNetTrainer(model, TrainerConfig(epochs=1)),
                [normalizer.tensorize(s) for s in samples])

    def test_training_model_returns_to_training(self):
        trainer, items = self._trainer()
        trainer.model.train()
        trainer.evaluate_loss(items)
        assert trainer.model.training

    def test_eval_model_stays_in_eval(self):
        trainer, items = self._trainer()
        trainer.model.eval()
        trainer.evaluate_loss(items)
        assert not trainer.model.training
