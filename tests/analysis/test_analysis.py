"""Tests for the analysis utilities: load/bottleneck reports and what-if queries."""

import numpy as np
import pytest

from repro.analysis import (
    WhatIfAnalyzer,
    bottleneck_links,
    link_loads,
    link_utilizations,
    make_scenario_sample,
    path_utilization_summary,
)
from repro.datasets import DatasetConfig, FeatureNormalizer, generate_dataset
from repro.models import ExtendedRouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
from repro.routing import random_variation_routing, shortest_path_routing
from repro.topology import linear_topology, nsfnet_topology, ring_topology
from repro.traffic import TrafficMatrix, scaled_to_utilization, uniform_traffic


class TestUtilizationAnalysis:
    def _scenario(self):
        topology = linear_topology(3, capacity=1e6)
        routing = shortest_path_routing(topology)
        traffic = TrafficMatrix.zeros(3)
        traffic.set_demand(0, 2, 4e5)
        traffic.set_demand(0, 1, 1e5)
        return topology, routing, traffic

    def test_link_loads_additive(self):
        topology, routing, traffic = self._scenario()
        loads = link_loads(routing, traffic)
        # Link 0->1 carries both demands, link 1->2 only the two-hop one.
        assert loads[topology.link_index(0, 1)] == pytest.approx(5e5)
        assert loads[topology.link_index(1, 2)] == pytest.approx(4e5)
        assert loads[topology.link_index(2, 1)] == pytest.approx(0.0)

    def test_link_utilizations(self):
        topology, routing, traffic = self._scenario()
        utilizations = link_utilizations(routing, traffic)
        assert utilizations[topology.link_index(0, 1)] == pytest.approx(0.5)

    def test_mismatched_sizes_raise(self):
        topology, routing, _ = self._scenario()
        with pytest.raises(ValueError):
            link_loads(routing, TrafficMatrix.zeros(7))

    def test_bottleneck_links_sorted(self):
        topology, routing, traffic = self._scenario()
        bottlenecks = bottleneck_links(routing, traffic, top_k=3)
        assert len(bottlenecks) == 3
        values = [entry["utilization"] for entry in bottlenecks]
        assert values == sorted(values, reverse=True)
        assert bottlenecks[0]["source"] == 0 and bottlenecks[0]["target"] == 1

    def test_bottleneck_validation(self):
        topology, routing, traffic = self._scenario()
        with pytest.raises(ValueError):
            bottleneck_links(routing, traffic, top_k=0)

    def test_path_utilization_summary(self):
        topology, routing, traffic = self._scenario()
        summary = path_utilization_summary(routing, traffic)
        assert summary[(0, 2)] == pytest.approx(0.5)
        assert summary[(2, 0)] == pytest.approx(0.0)

    def test_scaled_matrix_hits_target_peak(self):
        topology = nsfnet_topology()
        routing = shortest_path_routing(topology)
        traffic = uniform_traffic(14, 1.0, 2.0, rng=np.random.default_rng(0))
        traffic = scaled_to_utilization(traffic, routing, 0.6)
        assert link_utilizations(routing, traffic).max() == pytest.approx(0.6)


class TestWhatIfAnalyzer:
    @pytest.fixture(scope="class")
    def trained(self):
        topology = ring_topology(6)
        samples = generate_dataset(topology, DatasetConfig(num_samples=8, seed=9,
                                                           routing_variation=2))
        model = ExtendedRouteNet(RouteNetConfig(link_state_dim=8, path_state_dim=8,
                                                node_state_dim=8,
                                                message_passing_iterations=2, seed=9))
        trainer = RouteNetTrainer(model, TrainerConfig(epochs=6, learning_rate=0.01, seed=9))
        trainer.fit(samples)
        return topology, model, trainer.normalizer

    def _scenario(self, topology, seed=0, utilization=0.7):
        routing = shortest_path_routing(topology)
        traffic = uniform_traffic(topology.num_nodes, 0.5, 1.5,
                                  rng=np.random.default_rng(seed))
        return routing, scaled_to_utilization(traffic, routing, utilization)

    def test_scenario_sample_placeholder(self):
        topology = ring_topology(4)
        routing, traffic = self._scenario(topology)
        sample = make_scenario_sample(topology, routing, traffic)
        assert sample.num_paths == routing.num_paths
        np.testing.assert_allclose(sample.delays, 0.0)

    def test_predict_shapes(self, trained):
        topology, model, normalizer = trained
        routing, traffic = self._scenario(topology)
        analyzer = WhatIfAnalyzer(model, normalizer)
        prediction = analyzer.predict(topology, routing, traffic)
        assert prediction.values.shape == (routing.num_paths,)
        assert prediction.mean > 0
        pair = prediction.pair_order[0]
        assert prediction.value(*pair) == pytest.approx(prediction.values[0])

    def test_worst_pairs(self, trained):
        topology, model, normalizer = trained
        routing, traffic = self._scenario(topology)
        prediction = WhatIfAnalyzer(model, normalizer).predict(topology, routing, traffic)
        worst = prediction.worst_pairs(top_k=3)
        assert len(worst) == 3
        assert worst[0][1] >= worst[1][1] >= worst[2][1]
        assert worst[0][1] == pytest.approx(prediction.worst_value)

    def test_compare_routings_ranks(self, trained):
        topology, model, normalizer = trained
        _, traffic = self._scenario(topology)
        candidates = {
            "shortest": shortest_path_routing(topology),
            "variant": random_variation_routing(topology, k=2,
                                                rng=np.random.default_rng(4)),
        }
        analyzer = WhatIfAnalyzer(model, normalizer)
        rows = analyzer.compare_routings(topology, traffic, candidates)
        assert len(rows) == 2
        assert rows[0]["mean"] <= rows[1]["mean"]
        assert analyzer.best_routing(topology, traffic, candidates) == rows[0]["name"]

    def test_traffic_sweep_monotone_on_average(self, trained):
        """Higher offered load should raise the predicted mean delay overall."""
        topology, model, normalizer = trained
        routing, traffic = self._scenario(topology, utilization=0.4)
        analyzer = WhatIfAnalyzer(model, normalizer)
        rows = analyzer.traffic_sweep(topology, routing, traffic, [0.5, 1.0, 2.0])
        assert len(rows) == 3
        assert rows[-1]["mean"] > rows[0]["mean"]

    def test_validation(self, trained):
        topology, model, normalizer = trained
        with pytest.raises(ValueError):
            WhatIfAnalyzer(model, FeatureNormalizer())
        analyzer = WhatIfAnalyzer(model, normalizer)
        with pytest.raises(ValueError):
            analyzer.compare_routings(topology, TrafficMatrix.zeros(6), {})
        routing, traffic = self._scenario(topology)
        with pytest.raises(ValueError):
            analyzer.traffic_sweep(topology, routing, traffic, [])
