"""Tests for RouteNet, Extended RouteNet, the trainer and the evaluation helpers."""

import numpy as np
import pytest

from repro.datasets import (
    AnalyticGroundTruth,
    DatasetConfig,
    FeatureNormalizer,
    generate_dataset,
    tensorize_sample,
)
from repro.models import (
    ExtendedRouteNet,
    RouteNet,
    RouteNetConfig,
    RouteNetTrainer,
    TrainerConfig,
    evaluate_model,
)
from repro.nn.serialization import load_parameters, save_checkpoint
from repro.routing import shortest_path_routing
from repro.topology import linear_topology, ring_topology
from repro.traffic import scaled_to_utilization, uniform_traffic

SMALL_CONFIG = RouteNetConfig(link_state_dim=6, path_state_dim=6, node_state_dim=6,
                              message_passing_iterations=2, readout_hidden_sizes=(8,),
                              seed=0)


def _dataset(num_samples=4, num_nodes=5, seed=0, small_queue_fraction=0.5):
    config = DatasetConfig(num_samples=num_samples, seed=seed,
                           small_queue_fraction=small_queue_fraction)
    return generate_dataset(ring_topology(num_nodes), config)


def _tensorized_one(seed=0):
    samples = _dataset(num_samples=1, seed=seed)
    normalizer = FeatureNormalizer().fit(samples)
    return samples[0], tensorize_sample(samples[0], normalizer), normalizer


class TestRouteNetConfig:
    def test_defaults_valid(self):
        config = RouteNetConfig()
        assert config.message_passing_iterations >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RouteNetConfig(link_state_dim=0)
        with pytest.raises(ValueError):
            RouteNetConfig(message_passing_iterations=0)
        with pytest.raises(ValueError):
            RouteNetConfig(readout_hidden_sizes=(0,))


class TestForwardPasses:
    @pytest.mark.parametrize("model_cls", [RouteNet, ExtendedRouteNet])
    def test_output_shape(self, model_cls):
        _, tensorized, _ = _tensorized_one()
        model = model_cls(SMALL_CONFIG)
        out = model(tensorized)
        assert out.shape == (tensorized.num_paths,)

    @pytest.mark.parametrize("model_cls", [RouteNet, ExtendedRouteNet])
    def test_deterministic_forward(self, model_cls):
        _, tensorized, _ = _tensorized_one()
        model = model_cls(SMALL_CONFIG)
        np.testing.assert_allclose(model.predict(tensorized), model.predict(tensorized))

    @pytest.mark.parametrize("model_cls", [RouteNet, ExtendedRouteNet])
    def test_gradients_reach_all_parameters(self, model_cls):
        _, tensorized, _ = _tensorized_one()
        model = model_cls(SMALL_CONFIG)
        out = model(tensorized)
        (out ** 2).sum().backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, f"no gradient for {name}"

    def test_original_ignores_queue_sizes(self):
        """The original architecture must be invariant to node queue sizes."""
        sample, tensorized, normalizer = _tensorized_one()
        model = RouteNet(SMALL_CONFIG)
        baseline = model.predict(tensorized)

        modified_topology = sample.topology.copy()
        for node in modified_topology.nodes():
            modified_topology.set_queue_size(node, 999)
        modified_sample = AnalyticGroundTruth(noise_std=0.0).generate(
            modified_topology, sample.routing, sample.traffic)
        modified_tensorized = tensorize_sample(modified_sample, normalizer)
        np.testing.assert_allclose(model.predict(modified_tensorized), baseline)

    def test_extended_reacts_to_queue_sizes(self):
        """The extended architecture must *not* be invariant to queue sizes."""
        sample, tensorized, normalizer = _tensorized_one()
        model = ExtendedRouteNet(SMALL_CONFIG)
        baseline = model.predict(tensorized)

        modified_topology = sample.topology.copy()
        for node in modified_topology.nodes():
            modified_topology.set_queue_size(node, 999)
        modified_sample = AnalyticGroundTruth(noise_std=0.0).generate(
            modified_topology, sample.routing, sample.traffic)
        modified_tensorized = tensorize_sample(modified_sample, normalizer)
        assert not np.allclose(model.predict(modified_tensorized), baseline)

    def test_extended_feature_ablation_restores_invariance(self):
        sample, tensorized, normalizer = _tensorized_one()
        model = ExtendedRouteNet(SMALL_CONFIG, use_node_features=False)
        baseline = model.predict(tensorized)
        modified_topology = sample.topology.copy()
        for node in modified_topology.nodes():
            modified_topology.set_queue_size(node, 999)
        modified_sample = AnalyticGroundTruth(noise_std=0.0).generate(
            modified_topology, sample.routing, sample.traffic)
        modified_tensorized = tensorize_sample(modified_sample, normalizer)
        np.testing.assert_allclose(model.predict(modified_tensorized), baseline)

    def test_extended_requires_matching_state_dims(self):
        with pytest.raises(ValueError):
            ExtendedRouteNet(RouteNetConfig(link_state_dim=8, node_state_dim=4))

    def test_more_iterations_changes_output(self):
        _, tensorized, _ = _tensorized_one()
        one = RouteNet(RouteNetConfig(link_state_dim=6, path_state_dim=6, node_state_dim=6,
                                      message_passing_iterations=1, seed=0))
        three = RouteNet(RouteNetConfig(link_state_dim=6, path_state_dim=6, node_state_dim=6,
                                        message_passing_iterations=3, seed=0))
        assert not np.allclose(one.predict(tensorized), three.predict(tensorized))

    def test_parameter_counts_differ(self):
        original = RouteNet(SMALL_CONFIG)
        extended = ExtendedRouteNet(SMALL_CONFIG)
        # The extension adds RNN_N, nothing else changes.
        assert extended.num_parameters() > original.num_parameters()


class TestSerializationOfModels:
    @pytest.mark.parametrize("model_cls", [RouteNet, ExtendedRouteNet])
    def test_round_trip(self, model_cls, tmp_path):
        _, tensorized, _ = _tensorized_one()
        model = model_cls(SMALL_CONFIG)
        expected = model.predict(tensorized)
        path = save_checkpoint(model, str(tmp_path / "model"))
        clone = model_cls(RouteNetConfig(link_state_dim=6, path_state_dim=6, node_state_dim=6,
                                         message_passing_iterations=2,
                                         readout_hidden_sizes=(8,), seed=123))
        load_parameters(clone, path)
        np.testing.assert_allclose(clone.predict(tensorized), expected)


class TestTrainer:
    def test_loss_decreases(self):
        samples = _dataset(num_samples=6, seed=1)
        model = ExtendedRouteNet(SMALL_CONFIG)
        trainer = RouteNetTrainer(model, TrainerConfig(epochs=8, learning_rate=0.01, seed=0))
        history = trainer.fit(samples)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_validation_loss_recorded(self):
        samples = _dataset(num_samples=6, seed=2)
        model = RouteNet(SMALL_CONFIG)
        trainer = RouteNetTrainer(model, TrainerConfig(epochs=3, learning_rate=0.01))
        history = trainer.fit(samples[:4], val_samples=samples[4:])
        assert len(history.val_loss) == 3
        assert all(v is not None for v in history.val_loss)

    def test_early_stopping(self):
        samples = _dataset(num_samples=4, seed=3)
        model = RouteNet(SMALL_CONFIG)
        trainer = RouteNetTrainer(
            model, TrainerConfig(epochs=30, learning_rate=1e-9, early_stopping_patience=2))
        history = trainer.fit(samples)
        assert len(history.epochs) < 30

    def test_predict_delays_denormalised(self):
        samples = _dataset(num_samples=5, seed=4)
        model = ExtendedRouteNet(SMALL_CONFIG)
        trainer = RouteNetTrainer(model, TrainerConfig(epochs=10, learning_rate=0.01))
        trainer.fit(samples[:4])
        predicted = trainer.predict_delays(samples[4])
        assert predicted.shape == samples[4].delays.shape
        # After training, predictions live on the physical delay scale.
        assert predicted.mean() == pytest.approx(samples[4].delays.mean(), rel=1.0)

    def test_predict_requires_fit(self):
        model = RouteNet(SMALL_CONFIG)
        trainer = RouteNetTrainer(model)
        with pytest.raises(RuntimeError):
            trainer.predict_delays(_dataset(num_samples=1)[0])

    def test_trainer_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=0)

    def test_evaluate_loss_requires_samples(self):
        model = RouteNet(SMALL_CONFIG)
        trainer = RouteNetTrainer(model)
        with pytest.raises(ValueError):
            trainer.evaluate_loss([])


class TestEvaluateModel:
    def test_metrics_structure(self):
        samples = _dataset(num_samples=4, seed=6)
        model = ExtendedRouteNet(SMALL_CONFIG)
        trainer = RouteNetTrainer(model, TrainerConfig(epochs=3, learning_rate=0.01))
        trainer.fit(samples[:3])
        metrics = evaluate_model(model, samples[3:], trainer.normalizer)
        assert set(metrics) >= {"relative_errors", "mean_relative_error", "mape_percent",
                                "rmse", "pearson", "num_paths"}
        assert metrics["num_paths"] == samples[3].num_paths
        assert metrics["relative_errors"].shape == (samples[3].num_paths,)

    def test_empty_evaluation_raises(self):
        model = RouteNet(SMALL_CONFIG)
        with pytest.raises(ValueError):
            evaluate_model(model, [], FeatureNormalizer())


class TestLearnsQueueSizeEffect:
    def test_extended_beats_original_on_mixed_queues(self):
        """Scaled-down version of the paper's key claim (Fig. 2).

        On a dataset whose delays depend on per-node queue sizes, the
        extended model (which sees queue sizes) must reach a lower error
        than the original model (which cannot).
        """
        topology = ring_topology(6)
        config = DatasetConfig(num_samples=14, seed=7, small_queue_fraction=0.5,
                               utilization_range=(0.6, 0.9), noise_std=0.0)
        samples = generate_dataset(topology, config)
        train, test = samples[:10], samples[10:]

        model_config = RouteNetConfig(link_state_dim=8, path_state_dim=8, node_state_dim=8,
                                      message_passing_iterations=3, seed=1)
        trainer_config = TrainerConfig(epochs=15, learning_rate=0.01, seed=1)

        extended = ExtendedRouteNet(model_config)
        extended_trainer = RouteNetTrainer(extended, trainer_config)
        extended_trainer.fit(train)
        extended_metrics = evaluate_model(extended, test, extended_trainer.normalizer)

        original = RouteNet(model_config)
        original_trainer = RouteNetTrainer(original, trainer_config)
        original_trainer.fit(train)
        original_metrics = evaluate_model(original, test, original_trainer.normalizer)

        assert (extended_metrics["mean_relative_error"]
                < original_metrics["mean_relative_error"])
