"""Tests for the dataset substrate: samples, generators, normalisation,
tensorisation, splits and storage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    AnalyticGroundTruth,
    DatasetConfig,
    FeatureNormalizer,
    Sample,
    SimulationGroundTruth,
    generate_dataset,
    load_dataset,
    save_dataset,
    tensorize_sample,
    train_val_test_split,
)
from repro.routing import shortest_path_routing
from repro.topology import geant2_topology, linear_topology, nsfnet_topology, ring_topology
from repro.traffic import TrafficMatrix, scaled_to_utilization, uniform_traffic
from tests.support import float_tolerance


def _small_scenario(num_nodes=5, utilization=0.5, seed=0, queue_sizes=None):
    topology = ring_topology(num_nodes)
    if queue_sizes is not None:
        for node, size in enumerate(queue_sizes):
            topology.set_queue_size(node, size)
    routing = shortest_path_routing(topology)
    traffic = uniform_traffic(num_nodes, 0.5, 1.5, rng=np.random.default_rng(seed))
    traffic = scaled_to_utilization(traffic, routing, utilization)
    return topology, routing, traffic


class TestSample:
    def _make(self):
        topology, routing, traffic = _small_scenario()
        delays = np.linspace(0.01, 0.02, routing.num_paths)
        return Sample(topology, routing, traffic, delays)

    def test_pair_order_and_lookup(self):
        sample = self._make()
        assert sample.num_paths == sample.routing.num_paths
        first_pair = sample.pair_order[0]
        assert sample.delay(*first_pair) == pytest.approx(sample.delays[0])

    def test_delay_shape_validated(self):
        topology, routing, traffic = _small_scenario()
        with pytest.raises(ValueError):
            Sample(topology, routing, traffic, np.ones(3))

    def test_negative_delay_rejected(self):
        topology, routing, traffic = _small_scenario()
        delays = np.ones(routing.num_paths)
        delays[0] = -1
        with pytest.raises(ValueError):
            Sample(topology, routing, traffic, delays)

    def test_jitter_shape_validated(self):
        topology, routing, traffic = _small_scenario()
        delays = np.ones(routing.num_paths)
        with pytest.raises(ValueError):
            Sample(topology, routing, traffic, delays, jitters=np.ones(2))

    def test_dict_round_trip(self):
        sample = self._make()
        rebuilt = Sample.from_dict(sample.to_dict())
        np.testing.assert_allclose(rebuilt.delays, sample.delays)
        assert rebuilt.pair_order == sample.pair_order
        assert rebuilt.queue_sizes() == sample.queue_sizes()


class TestAnalyticGroundTruth:
    def test_generates_valid_sample(self):
        topology, routing, traffic = _small_scenario()
        sample = AnalyticGroundTruth(noise_std=0.0).generate(
            topology, routing, traffic, rng=np.random.default_rng(0))
        assert sample.num_paths == routing.num_paths
        assert np.all(sample.delays > 0)
        assert np.all(sample.losses >= 0)
        assert sample.metadata["generator"] == "analytic-mm1k"

    def test_noise_reproducible_with_seed(self):
        topology, routing, traffic = _small_scenario()
        generator = AnalyticGroundTruth(noise_std=0.1)
        s1 = generator.generate(topology, routing, traffic, rng=np.random.default_rng(5))
        s2 = generator.generate(topology, routing, traffic, rng=np.random.default_rng(5))
        np.testing.assert_allclose(s1.delays, s2.delays)

    def test_zero_noise_is_deterministic(self):
        topology, routing, traffic = _small_scenario()
        generator = AnalyticGroundTruth(noise_std=0.0)
        s1 = generator.generate(topology, routing, traffic)
        s2 = generator.generate(topology, routing, traffic)
        np.testing.assert_allclose(s1.delays, s2.delays)

    def test_delay_depends_on_queue_size(self):
        """The key property for Fig. 2: queue sizes change path delays."""
        num_nodes = 5
        small = _small_scenario(num_nodes, utilization=0.85, queue_sizes=[1] * num_nodes)
        big = _small_scenario(num_nodes, utilization=0.85, queue_sizes=[64] * num_nodes)
        generator = AnalyticGroundTruth(noise_std=0.0)
        delays_small = generator.generate(*small).delays
        delays_big = generator.generate(*big).delays
        assert delays_small.mean() < delays_big.mean()

    def test_higher_load_higher_delay(self):
        low = _small_scenario(utilization=0.2)
        high = _small_scenario(utilization=0.9)
        generator = AnalyticGroundTruth(noise_std=0.0)
        assert (generator.generate(*low).delays.mean()
                < generator.generate(*high).delays.mean())

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            AnalyticGroundTruth(noise_std=-0.1)


class TestSimulationGroundTruth:
    def test_generates_valid_sample(self):
        topology, routing, traffic = _small_scenario(utilization=0.4)
        generator = SimulationGroundTruth(duration=1.0, warmup=0.2)
        sample = generator.generate(topology, routing, traffic,
                                    rng=np.random.default_rng(0))
        assert sample.num_paths == routing.num_paths
        assert np.all(np.isfinite(sample.delays))
        assert np.all(sample.delays > 0)
        assert sample.metadata["generator"] == "packet-simulator"

    def test_agrees_with_analytic_at_moderate_load(self):
        """DES and the analytic generator should agree within ~30% at 0.5 load."""
        topology, routing, traffic = _small_scenario(num_nodes=4, utilization=0.5,
                                                     seed=3)
        # Scale traffic to absolute rates suited to 10 Mbps links.
        simulated = SimulationGroundTruth(duration=4.0, warmup=0.5).generate(
            topology, routing, traffic, rng=np.random.default_rng(1))
        analytic = AnalyticGroundTruth(noise_std=0.0).generate(topology, routing, traffic)
        ratio = simulated.delays.mean() / analytic.delays.mean()
        assert 0.7 < ratio < 1.3


class TestDatasetGenerator:
    def test_generates_requested_count(self):
        config = DatasetConfig(num_samples=4, seed=0)
        samples = generate_dataset(ring_topology(5), config)
        assert len(samples) == 4
        assert all(isinstance(s, Sample) for s in samples)

    def test_deterministic_given_seed(self):
        config = DatasetConfig(num_samples=3, seed=7)
        s1 = generate_dataset(ring_topology(5), config)
        s2 = generate_dataset(ring_topology(5), config)
        for a, b in zip(s1, s2):
            np.testing.assert_allclose(a.delays, b.delays)
            assert a.queue_sizes() == b.queue_sizes()

    def test_queue_size_mix_respected(self):
        config = DatasetConfig(num_samples=3, small_queue_fraction=0.5, seed=1)
        samples = generate_dataset(nsfnet_topology(), config)
        for sample in samples:
            sizes = list(sample.queue_sizes().values())
            assert sizes.count(1) == 7

    def test_zero_small_fraction_keeps_default(self):
        config = DatasetConfig(num_samples=2, small_queue_fraction=0.0, seed=1)
        samples = generate_dataset(ring_topology(4), config)
        for sample in samples:
            assert all(size == config.default_queue_size
                       for size in sample.queue_sizes().values())

    def test_metadata_recorded(self):
        config = DatasetConfig(num_samples=1, seed=2)
        sample = generate_dataset(geant2_topology(), config)[0]
        assert sample.metadata["topology_name"] == "geant2"
        low, high = config.utilization_range
        assert low <= sample.metadata["target_utilization"] <= high

    def test_shortest_path_routes_bound_to_each_sample(self):
        """The routes are computed once per generator, yet every sample's
        scheme is its own, built against that sample's topology, and equals
        shortest-path routing of it."""
        samples = generate_dataset(nsfnet_topology(), DatasetConfig(num_samples=2, seed=5))
        first, second = samples
        assert first.routing is not second.routing
        for sample in samples:
            assert sample.routing.topology is sample.topology
            assert (sample.routing.to_dict()
                    == shortest_path_routing(sample.topology).to_dict())

    def test_gravity_traffic_and_routing_variation(self):
        config = DatasetConfig(num_samples=2, traffic_model="gravity",
                               routing_variation=2, seed=3)
        samples = generate_dataset(ring_topology(6), config)
        assert len(samples) == 2

    def test_simulation_backend(self):
        config = DatasetConfig(num_samples=1, backend="simulation",
                               simulation_duration=0.5, seed=4,
                               utilization_range=(0.3, 0.4))
        sample = generate_dataset(ring_topology(4), config)[0]
        assert sample.metadata["generator"] == "packet-simulator"

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            DatasetConfig(num_samples=0)
        with pytest.raises(ValueError):
            DatasetConfig(small_queue_fraction=2.0)
        with pytest.raises(ValueError):
            DatasetConfig(utilization_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            DatasetConfig(traffic_model="chaotic")
        with pytest.raises(ValueError):
            DatasetConfig(routing_variation=0)
        with pytest.raises(ValueError):
            DatasetConfig(backend="quantum")


class TestNormalizer:
    def _samples(self):
        return generate_dataset(ring_topology(5), DatasetConfig(num_samples=3, seed=0))

    def test_normalized_statistics(self):
        samples = self._samples()
        normalizer = FeatureNormalizer().fit(samples)
        delays = np.concatenate([s.delays for s in samples])
        normalised = normalizer.normalize("delay", delays)
        assert abs(normalised.mean()) < 1e-9
        assert normalised.std() == pytest.approx(1.0, abs=1e-6)

    def test_round_trip(self):
        samples = self._samples()
        normalizer = FeatureNormalizer().fit(samples)
        values = np.array([0.01, 0.5, 2.0])
        np.testing.assert_allclose(
            normalizer.denormalize("delay", normalizer.normalize("delay", values)), values)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            FeatureNormalizer().normalize("delay", np.ones(3))

    def test_unknown_field_raises(self):
        normalizer = FeatureNormalizer().fit(self._samples())
        with pytest.raises(KeyError):
            normalizer.normalize("bandwidth", np.ones(2))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            FeatureNormalizer().fit([])

    def test_serialisation(self):
        normalizer = FeatureNormalizer().fit(self._samples())
        rebuilt = FeatureNormalizer.from_dict(normalizer.to_dict())
        values = np.array([0.02, 0.03])
        np.testing.assert_allclose(rebuilt.normalize("delay", values),
                                   normalizer.normalize("delay", values))


class TestTensorize:
    def _tensorized(self, topology=None):
        topology = topology if topology is not None else geant2_topology()
        config = DatasetConfig(num_samples=1, seed=0)
        sample = generate_dataset(topology, config)[0]
        normalizer = FeatureNormalizer().fit([sample])
        return sample, tensorize_sample(sample, normalizer)

    def test_shapes_consistent(self):
        sample, tensorized = self._tensorized()
        assert tensorized.num_paths == sample.num_paths
        assert tensorized.num_links == sample.topology.num_links
        assert tensorized.num_nodes == sample.topology.num_nodes
        assert tensorized.link_sequences.shape == tensorized.node_sequences.shape
        tensorized.validate()

    def test_sequences_match_routing(self):
        sample, tensorized = self._tensorized(nsfnet_topology())
        pair = sample.pair_order[10]
        row = 10
        length = tensorized.path_lengths[row]
        expected_links = sample.routing.link_path(*pair)
        expected_nodes = sample.routing.path(*pair)[:-1]
        np.testing.assert_array_equal(tensorized.link_sequences[row, :length], expected_links)
        np.testing.assert_array_equal(tensorized.node_sequences[row, :length], expected_nodes)
        assert tensorized.sequence_mask[row, length:].sum() == 0

    def test_node_feature_is_queue_size(self):
        topology = linear_topology(3)
        topology.set_queue_size(1, 1)
        routing = shortest_path_routing(topology)
        traffic = uniform_traffic(3, 1e5, 2e5, rng=np.random.default_rng(0))
        sample = AnalyticGroundTruth(noise_std=0.0).generate(topology, routing, traffic)
        normalizer = FeatureNormalizer().fit([sample])
        tensorized = tensorize_sample(sample, normalizer)
        np.testing.assert_allclose(tensorized.node_features[:, 0],
                                   normalizer.normalize("queue_size", [32, 1, 32]),
                                   rtol=float_tolerance())

    @given(st.integers(3, 7), st.integers(0, 3))
    @settings(max_examples=15, deadline=None)
    def test_mask_lengths_property(self, num_nodes, seed):
        config = DatasetConfig(num_samples=1, seed=seed)
        sample = generate_dataset(ring_topology(num_nodes), config)[0]
        tensorized = tensorize_sample(sample, FeatureNormalizer().fit([sample]))
        lengths = tensorized.sequence_mask.sum(axis=1).astype(int)
        np.testing.assert_array_equal(lengths, tensorized.path_lengths)
        assert tensorized.max_path_length == lengths.max()


class TestSplitsAndStorage:
    def test_split_sizes(self):
        samples = generate_dataset(ring_topology(4), DatasetConfig(num_samples=10, seed=0))
        train, val, test = train_val_test_split(samples, 0.7, 0.2, seed=1)
        assert len(train) == 7 and len(val) == 2 and len(test) == 1
        assert len(train) + len(val) + len(test) == 10

    def test_split_deterministic(self):
        samples = generate_dataset(ring_topology(4), DatasetConfig(num_samples=6, seed=0))
        t1, v1, e1 = train_val_test_split(samples, seed=3)
        t2, v2, e2 = train_val_test_split(samples, seed=3)
        assert [id(s) for s in t1] == [id(s) for s in t2]

    def test_split_validation(self):
        samples = generate_dataset(ring_topology(4), DatasetConfig(num_samples=3, seed=0))
        with pytest.raises(ValueError):
            train_val_test_split([], 0.5, 0.2)
        with pytest.raises(ValueError):
            train_val_test_split(samples, 0.9, 0.2)

    def test_save_load_round_trip(self, tmp_path):
        samples = generate_dataset(ring_topology(4), DatasetConfig(num_samples=3, seed=0))
        normalizer = FeatureNormalizer().fit(samples)
        path = save_dataset(samples, str(tmp_path / "dataset"), normalizer=normalizer,
                            metadata={"purpose": "test"})
        loaded, loaded_normalizer, metadata = load_dataset(path)
        assert len(loaded) == 3
        assert metadata["purpose"] == "test"
        np.testing.assert_allclose(loaded[0].delays, samples[0].delays)
        assert loaded_normalizer.means == normalizer.means

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(str(tmp_path / "nope"))
