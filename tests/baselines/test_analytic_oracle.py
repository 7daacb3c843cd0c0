"""The array-level analytic labeller equals the per-pair loops it replaced, bit for bit.

Routes, routing matrices, per-pair delays and loss ratios, link utilisations and whole
:class:`AnalyticGroundTruth` samples are compared with the oracles in
:mod:`tests.baselines.analytic_oracle` over small ring, grid, random and
scale-free topologies with mixed queue sizes.  Equality is on the bytes:
a label that moves by one ulp fails.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    MM1KModel,
    MM1Model,
    mm1k_blocking_probability,
    mm1k_mean_queue_length,
)
from repro.datasets.analytic import AnalyticGroundTruth
from repro.routing import random_variation_routing, routing_matrix, shortest_path_routing
from repro.topology import Topology
from repro.topology.generators import (
    assign_queue_sizes,
    grid_topology,
    random_topology,
    ring_topology,
    scale_free_topology,
)
from repro.traffic import TrafficMatrix, uniform_traffic
from repro.traffic.generators import scaled_to_utilization
from tests.baselines.analytic_oracle import (
    oracle_analytic_sample,
    oracle_blocking_probability,
    oracle_mean_queue_length,
    oracle_predict,
    oracle_random_variation_routing,
    oracle_routing_matrix,
    oracle_shortest_path_routing,
)


def build_topology(family, size, seed, capacity, propagation):
    rng = np.random.default_rng(seed)
    if family == "ring":
        return ring_topology(size, capacity, propagation)
    if family == "grid":
        return grid_topology(2 + size % 2, 2 + size // 4, capacity, propagation)
    if family == "random":
        return random_topology(size, capacity=capacity, propagation_delay=propagation, rng=rng)
    return scale_free_topology(size, capacity=capacity, propagation_delay=propagation,
                               rng=rng)


def same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    return actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()


def assert_same_prediction(actual, expected):
    assert actual.pair_order == expected.pair_order
    for name in ("delays", "loss_ratios", "link_utilizations"):
        assert same_bytes(getattr(actual, name), getattr(expected, name)), name


def assert_same_routing(actual, expected):
    # Insertion order too: next_hop walks the paths in it.
    assert list(actual._paths.items()) == list(expected._paths.items())


@given(family=st.sampled_from(["ring", "grid", "random", "scale_free"]),
       size=st.integers(4, 18), seed=st.integers(0, 2 ** 16),
       capacity=st.sampled_from([1e6, 10e6, 2.5e6]),
       propagation=st.sampled_from([0.0, 0.001, 0.0031]),
       queues=st.tuples(st.integers(1, 40), st.integers(1, 3), st.floats(0.0, 1.0)),
       zero_share=st.sampled_from([0.0, 0.3, 0.7]),
       utilization=st.floats(0.2, 1.6), k=st.integers(1, 3),
       iterations=st.integers(1, 10))
# A 9-link path on the ring; the busiest link loaded exactly to capacity.
@example(family="ring", size=18, seed=0, capacity=1e6, propagation=0.001,
         queues=(32, 1, 0.5), zero_share=0.3, utilization=1.0, k=1, iterations=10)
# Overloaded links (rho up to 1.6) with varied routing.
@example(family="grid", size=13, seed=3, capacity=10e6, propagation=0.0,
         queues=(8, 1, 0.5), zero_share=0.0, utilization=1.6, k=3, iterations=10)
@settings(max_examples=25, deadline=None)
def test_labeller_matches_the_per_pair_oracle(family, size, seed, capacity, propagation,
                                              queues, zero_share, utilization, k,
                                              iterations):
    rng = np.random.default_rng(seed)
    default_queue, small_queue, small_share = queues
    topology = assign_queue_sizes(
        build_topology(family, size, seed, capacity, propagation), small_share, rng=rng,
        default_queue_size=default_queue, small_queue_size=small_queue)
    routing = shortest_path_routing(topology)
    assert_same_routing(routing, oracle_shortest_path_routing(topology))
    if k > 1:
        routing = random_variation_routing(topology, k=k, rng=np.random.default_rng(seed))
        assert_same_routing(routing, oracle_random_variation_routing(
            topology, k=k, rng=np.random.default_rng(seed)))
    assert same_bytes(routing_matrix(routing), oracle_routing_matrix(routing))

    demands = uniform_traffic(topology.num_nodes, 0.5, 1.5, rng=rng).matrix
    demands[rng.random(demands.shape) < zero_share] = 0.0
    demands[0, 1] = 1.0  # scaled_to_utilization needs some traffic
    traffic = scaled_to_utilization(TrafficMatrix(demands), routing, utilization)

    for model in (MM1KModel(fixed_point_iterations=iterations), MM1Model()):
        assert_same_prediction(model.predict(topology, routing, traffic),
                               oracle_predict(model, topology, routing, traffic))

    ground_truth = AnalyticGroundTruth(noise_std=0.03, fixed_point_iterations=iterations)
    sample = ground_truth.generate(topology, routing, traffic,
                                   rng=np.random.default_rng(seed))
    expected = oracle_analytic_sample(ground_truth, topology, routing, traffic,
                                      np.random.default_rng(seed))
    for name in ("delays", "jitters", "losses"):
        assert same_bytes(getattr(sample, name), getattr(expected, name)), name


def test_ring_example_has_paths_of_eight_or_more_links():
    """The property's ring example reaches the rows ``np.sum`` adds pairwise."""
    routing = shortest_path_routing(ring_topology(18))
    assert max(len(path) for path in routing.link_paths()) == 9


@pytest.mark.parametrize("formula, oracle, at_rho_one", [
    (mm1k_blocking_probability, oracle_blocking_probability, lambda k: 1.0 / (k + 1)),
    (mm1k_mean_queue_length, oracle_mean_queue_length, lambda k: k / 2.0),
])
def test_formulas_match_np_isclose_at_the_rho_one_edge(formula, oracle, at_rho_one):
    edge = 1e-08 + 1e-05
    rhos = [1.0, 1.0 - 5e-6, 1.0 + 5e-6, 1.0 + 2e-5, 0.5, 1.5]
    for bound in (1.0 + edge, 1.0 - edge):
        rhos += [bound, np.nextafter(bound, 0.0), np.nextafter(bound, 2.0)]
    inside = [rho for rho in rhos if abs(rho - 1.0) <= edge]
    assert 3 < len(inside) < len(rhos) - 3
    for rho in rhos:
        for capacity in (np.int64(1), np.int64(2), np.int64(33)):
            value = formula(np.float64(rho), np.float64(1.0), capacity)
            assert same_bytes(value, oracle(np.float64(rho), np.float64(1.0), capacity))
            if rho in inside:
                assert value == at_rho_one(capacity)


@pytest.mark.parametrize("overshoot", [0.0, 5e-6, 2e-5])
def test_link_loaded_to_rho_one_matches_oracle(overshoot):
    """Demand equal to capacity gives rho == 1.0 exactly on the first pass."""
    topology = Topology("pair")
    topology.add_node(0, queue_size=4)
    topology.add_node(1, queue_size=1)
    topology.add_link(0, 1, capacity=1e6, propagation_delay=0.002, bidirectional=True)
    traffic = TrafficMatrix.zeros(2)
    traffic.set_demand(0, 1, 1e6 * (1.0 + overshoot))
    traffic.set_demand(1, 0, 1e6)
    routing = shortest_path_routing(topology)
    for iterations in (1, 10):
        model = MM1KModel(fixed_point_iterations=iterations)
        assert_same_prediction(model.predict(topology, routing, traffic),
                               oracle_predict(model, topology, routing, traffic))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_zero_demand_pairs_stay_out_of_a_nan_fixed_point():
    """A zero-demand path offers nothing, even past a link whose blocking is NaN.

    rho = 100 on a 1000-packet queue overflows ``rho ** (K + 1)``, so the
    first link's blocking is NaN from the second pass on; the zero-demand
    pair (0, 2) crosses it and must leave the second link's load finite.
    """
    topology = Topology("chain")
    topology.add_node(0, queue_size=1000)
    topology.add_node(1)
    topology.add_node(2)
    topology.add_link(0, 1, capacity=1e6, bidirectional=True)
    topology.add_link(1, 2, capacity=1e6, bidirectional=True)
    traffic = TrafficMatrix.zeros(3)
    traffic.set_demand(0, 1, 1e8)
    traffic.set_demand(1, 2, 5e5)
    routing = shortest_path_routing(topology)
    model = MM1KModel(fixed_point_iterations=3)
    prediction = model.predict(topology, routing, traffic)
    assert_same_prediction(prediction, oracle_predict(model, topology, routing, traffic))
    assert np.isfinite(prediction.link_utilizations[topology.link_index(1, 2)])


def _outcome(function, *args, **kwargs):
    try:
        return list(function(*args, **kwargs)._paths.items())
    except Exception as error:  # the error itself is what is compared
        return type(error), str(error)


@pytest.mark.parametrize("pairs", [
    None,                    # (1, 0) has no path
    [(0, 3), (1, 2)],        # every pair reachable
    [(2, 1), (0, 3)],        # the first pair fails
    [(0, 9)],                # unknown destination: no path
    [(9, 0), (3, 0)],        # unknown source: NodeNotFound, before the no-path pair
    [(1, 1)],                # a pair with one endpoint
])
def test_unreachable_and_invalid_pairs_raise_like_the_graph_search(pairs):
    topology = Topology("one-way")
    for node in range(4):
        topology.add_node(node)
    for source in range(3):
        topology.add_link(source, source + 1)
    topology.add_link(0, 2)
    outcome = _outcome(shortest_path_routing, topology, pairs)
    assert outcome == _outcome(oracle_shortest_path_routing, topology, pairs)
    if pairs is None:
        assert outcome[0] is nx.NetworkXNoPath
