"""Tests for the message-passing index construction and aggregation helpers."""

import numpy as np
import pytest

from repro.datasets import AnalyticGroundTruth, FeatureNormalizer, tensorize_sample
from repro.models.message_passing import (
    aggregate_path_states_per_node,
    build_index,
    initial_state,
)
from repro.nn.tensor import Tensor
from repro.routing import shortest_path_routing
from repro.topology import linear_topology, ring_topology
from repro.traffic import uniform_traffic
from tests.models.stacked_oracle import aggregate_positional_messages


def _tensorized(topology):
    routing = shortest_path_routing(topology)
    traffic = uniform_traffic(topology.num_nodes, 1e5, 2e5, rng=np.random.default_rng(0))
    sample = AnalyticGroundTruth(noise_std=0.0).generate(topology, routing, traffic)
    return sample, tensorize_sample(sample, FeatureNormalizer().fit([sample]))


class TestBuildIndex:
    def test_entry_counts_match_total_hops(self):
        sample, tensorized = _tensorized(ring_topology(5))
        index = build_index(tensorized)
        total_hops = sum(len(p) for p in sample.routing.link_paths())
        assert index.entry_path_ids.shape == (total_hops,)
        assert index.entry_link_ids.shape == (total_hops,)
        assert index.entry_node_ids.shape == (total_hops,)

    def test_entries_reference_correct_links(self):
        sample, tensorized = _tensorized(linear_topology(4))
        index = build_index(tensorized)
        # Reconstruct the link path of every pair from the flat entries.
        for row, pair in enumerate(sample.pair_order):
            mask = index.entry_path_ids == row
            links = index.entry_link_ids[mask]
            positions = index.entry_positions[mask]
            ordered = links[np.argsort(positions)]
            np.testing.assert_array_equal(ordered, sample.routing.link_path(*pair))

    def test_node_entries_are_sending_nodes(self):
        sample, tensorized = _tensorized(linear_topology(3))
        index = build_index(tensorized)
        for row, pair in enumerate(sample.pair_order):
            mask = index.entry_path_ids == row
            nodes = index.entry_node_ids[mask][np.argsort(index.entry_positions[mask])]
            np.testing.assert_array_equal(nodes, sample.routing.path(*pair)[:-1])


class TestInitialState:
    def test_padding(self):
        state = initial_state(np.array([[1.0], [2.0]]), state_dim=4)
        np.testing.assert_allclose(state.data, [[1, 0, 0, 0], [2, 0, 0, 0]])

    def test_too_many_features_rejected(self):
        with pytest.raises(ValueError):
            initial_state(np.ones((2, 5)), state_dim=3)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            initial_state(np.ones(3), state_dim=4)


class TestAggregation:
    def test_positional_messages_sum_per_link(self):
        sample, tensorized = _tensorized(linear_topology(3))
        index = build_index(tensorized)
        num_paths, max_len = tensorized.link_sequences.shape
        # Outputs equal to one everywhere: each link should accumulate exactly
        # the number of paths traversing it.
        outputs = Tensor(np.ones((num_paths, max_len, 2)))
        aggregated = aggregate_positional_messages(outputs, index, target="link")
        counts = np.bincount(index.entry_link_ids, minlength=index.num_links)
        np.testing.assert_allclose(aggregated.data[:, 0], counts)

    def test_positional_messages_per_node(self):
        sample, tensorized = _tensorized(linear_topology(3))
        index = build_index(tensorized)
        outputs = Tensor(np.ones((tensorized.num_paths, tensorized.max_path_length, 1)))
        aggregated = aggregate_positional_messages(outputs, index, target="node")
        counts = np.bincount(index.entry_node_ids, minlength=index.num_nodes)
        np.testing.assert_allclose(aggregated.data[:, 0], counts)

    def test_invalid_target(self):
        _, tensorized = _tensorized(linear_topology(3))
        index = build_index(tensorized)
        with pytest.raises(ValueError):
            aggregate_positional_messages(Tensor(np.ones((1, 1, 1))), index, target="router")

    def test_path_states_per_node_counts(self):
        sample, tensorized = _tensorized(linear_topology(3))
        index = build_index(tensorized)
        path_states = Tensor(np.ones((tensorized.num_paths, 3)))
        aggregated = aggregate_path_states_per_node(path_states, index)
        # Node 1 (the middle of the chain) forwards the 2 two-hop paths and
        # sends its own 2 one-hop flows: paths through it as sender = 4.
        expected = len(sample.routing.paths_through_node(1)) - sum(
            1 for pair in sample.routing.pairs() if pair[1] == 1)
        assert aggregated.data[1, 0] == pytest.approx(expected)

    def test_gradients_flow_through_aggregation(self):
        _, tensorized = _tensorized(ring_topology(4))
        index = build_index(tensorized)
        outputs = Tensor(np.random.default_rng(0).normal(
            size=(tensorized.num_paths, tensorized.max_path_length, 2)), requires_grad=True)
        aggregated = aggregate_positional_messages(outputs, index, target="link")
        (aggregated ** 2).sum().backward()
        assert outputs.grad is not None
        assert np.abs(outputs.grad).sum() > 0
