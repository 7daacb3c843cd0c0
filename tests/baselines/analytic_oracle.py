"""The per-pair analytic labeller, as a test oracle.

:func:`repro.routing.shortest_path_routing` builds its paths from one
reverse breadth-first search per destination, and
:meth:`repro.baselines.queueing.QueueingNetworkModel.predict` and
:class:`repro.datasets.analytic.AnalyticGroundTruth` evaluate every path at
once over the scheme's link matrix.  The code here is what they replaced:
a networkx search for every shortest path of every pair, Python loops over
pairs and hops, and ``np.isclose`` in the M/M/1/K formulas.  It is slow,
but plainly correct, which is what the bitwise equality tests need from a
reference.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Tuple

import networkx as nx
import numpy as np

from repro.baselines.queueing import MM1KModel, QueueingPrediction
from repro.datasets.sample import Sample
from repro.routing.scheme import RoutingScheme


def oracle_shortest_path_routing(topology, pairs=None) -> RoutingScheme:
    """Per pair, the lexicographically smallest of networkx's shortest paths."""
    selected_pairs = list(pairs) if pairs is not None else list(topology.pairs())
    paths = {}
    for source, destination in selected_pairs:
        paths[(source, destination)] = min(topology.all_shortest_paths(source, destination))
    return RoutingScheme(topology, paths)


def oracle_random_variation_routing(topology, k=3, rng=None, pairs=None) -> RoutingScheme:
    """Per pair, one of its ``k`` shortest simple paths, on a fresh graph copy each."""
    generator = rng if rng is not None else np.random.default_rng()
    selected_pairs = list(pairs) if pairs is not None else list(topology.pairs())
    paths = {}
    for source, destination in selected_pairs:
        graph = topology.to_networkx()
        candidates = [list(path) for path in islice(
            nx.shortest_simple_paths(graph, int(source), int(destination)), k)]
        paths[(source, destination)] = candidates[int(generator.integers(0, len(candidates)))]
    return RoutingScheme(topology, paths)


def oracle_routing_matrix(scheme) -> np.ndarray:
    """``R[p, l] = 1`` when path ``p`` crosses link ``l``, filled pair by pair."""
    matrix = np.zeros((scheme.num_paths, scheme.topology.num_links), dtype=np.int8)
    for row, (source, destination) in enumerate(scheme.pairs()):
        matrix[row, scheme.link_path(source, destination)] = 1
    return matrix


def oracle_blocking_probability(arrival_rate, service_rate, capacity):
    if arrival_rate == 0:
        return 0.0
    rho = arrival_rate / service_rate
    if np.isclose(rho, 1.0):
        return 1.0 / (capacity + 1)
    return float((1 - rho) * rho ** capacity / (1 - rho ** (capacity + 1)))


def oracle_mean_queue_length(arrival_rate, service_rate, capacity):
    if arrival_rate == 0:
        return 0.0
    rho = arrival_rate / service_rate
    if np.isclose(rho, 1.0):
        return capacity / 2.0
    k = capacity
    return float(rho / (1 - rho) - (k + 1) * rho ** (k + 1) / (1 - rho ** (k + 1)))


def oracle_link_metrics(model, arrival_pps, service_pps, queue_capacity):
    """``model._link_metrics`` with the M/M/1/K formulas above."""
    if not isinstance(model, MM1KModel):
        return model._link_metrics(arrival_pps, service_pps, queue_capacity)
    blocking = oracle_blocking_probability(arrival_pps, service_pps, queue_capacity)
    if arrival_pps <= 0:
        return 1.0 / service_pps, 0.0
    mean_in_system = oracle_mean_queue_length(arrival_pps, service_pps, queue_capacity)
    effective_arrivals = arrival_pps * (1.0 - blocking)
    if effective_arrivals <= 0:
        return 1.0 / service_pps, blocking
    return mean_in_system / effective_arrivals, blocking


def oracle_predict(model, topology, routing, traffic) -> QueueingPrediction:
    """``model.predict`` as loops over pairs and hops."""
    pair_order = routing.pairs()
    num_links = topology.num_links
    service_pps = np.array([spec.capacity / model.mean_packet_size_bits
                            for spec in topology.links()])
    queue_capacities = np.array(
        [topology.node_spec(spec.source).queue_size + 1 for spec in topology.links()],
        dtype=int)
    propagation = np.array([spec.propagation_delay for spec in topology.links()])

    def metrics(link):
        return oracle_link_metrics(model, arrival_pps[link], service_pps[link],
                                   queue_capacities[link])

    arrival_pps = np.zeros(num_links)
    per_pair_offered: Dict[Tuple[int, int], List[int]] = {
        pair: routing.link_path(*pair) for pair in pair_order}
    blocking = np.zeros(num_links)
    for _ in range(model._fixed_point_iterations()):
        arrival_pps[:] = 0.0
        for pair in pair_order:
            rate = traffic.demand(*pair) / model.mean_packet_size_bits
            if rate <= 0:
                continue
            surviving = rate
            for link in per_pair_offered[pair]:
                arrival_pps[link] += surviving
                surviving *= (1.0 - blocking[link])
        new_blocking = np.array([metrics(link)[1] for link in range(num_links)])
        if np.allclose(new_blocking, blocking, atol=1e-9):
            blocking = new_blocking
            break
        blocking = new_blocking

    sojourn = np.array([metrics(link)[0] for link in range(num_links)])
    delays = np.zeros(len(pair_order))
    losses = np.zeros(len(pair_order))
    for row, pair in enumerate(pair_order):
        links = per_pair_offered[pair]
        delays[row] = float(np.sum(sojourn[links]) + np.sum(propagation[links]))
        losses[row] = 1.0 - float(np.prod(1.0 - blocking[links]))
    utilizations = np.minimum(arrival_pps / service_pps, 1.0)
    return QueueingPrediction(pair_order=pair_order, delays=delays,
                              loss_ratios=losses, link_utilizations=utilizations)


def oracle_analytic_sample(ground_truth, topology, routing, traffic, rng) -> Sample:
    """``ground_truth.generate`` on :func:`oracle_predict` and a per-pair jitter floor."""
    prediction = oracle_predict(ground_truth._model, topology, routing, traffic)
    delays = prediction.delays.copy()
    if not np.all(np.isfinite(delays)):
        raise ValueError("analytic model produced non-finite delays; "
                         "reduce the offered load")
    if ground_truth.noise_std > 0:
        delays = delays * rng.lognormal(mean=0.0, sigma=ground_truth.noise_std,
                                        size=delays.shape)
    service_floor = np.array([
        sum(ground_truth.mean_packet_size_bits / topology.link_by_index(l).capacity
            + topology.link_by_index(l).propagation_delay
            for l in routing.link_path(*pair))
        for pair in routing.pairs()
    ])
    return Sample(topology=topology, routing=routing, traffic=traffic, delays=delays,
                  jitters=np.maximum(delays - service_floor, 0.0) * 0.5,
                  losses=prediction.loss_ratios.copy())
