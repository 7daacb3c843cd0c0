"""Golden bit-identity checks for the packet simulator.

Four small NSFNET scenarios at 0.8 peak link load, half the nodes on
1-packet queues, each pinned to the number of events the engine executes
and to a SHA-256 over everything the run reports.  Any change to the event
order, the RNG draws or the statistics changes a digest, so an engine
rewrite that passes these runs exactly the simulation it replaced.  The
expected values were recorded before the event loop was last rewritten.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.routing import shortest_path_routing
from repro.simulator import SimulationConfig, simulate_network
from repro.topology import nsfnet_topology
from repro.traffic import uniform_traffic
from repro.traffic.generators import scaled_to_utilization

#: name -> (SimulationConfig overrides, strict-priority nodes, events, digest)
GOLDEN = {
    "poisson": ({"source_model": "poisson"}, False, 12144,
                "44f3bcaeeda5d97046a01bf9ea00a6353b930e228902740a4e2e93f8967374e5"),
    "onoff": ({"source_model": "onoff"}, False, 12833,
              "0782a466b254c4c86244291582e8bfd6816cc70caa3b7292ce028894a7c3babf"),
    # Fixed sizes and intervals: ~1900 events share a timestamp with the one
    # before, so the (time, sequence) tie-break is exercised.
    "cbr": ({"source_model": "cbr", "exponential_packet_sizes": False}, False, 12312,
            "24dfa466d49f0e6fe240c1d8f3cd8db747770e5a2ca976abf2a122c613ce59b7"),
    "priority": ({"source_model": "poisson"}, True, 12148,
                 "b7c5c4a4f15ccaacc5c3a3d520f40d1aefd3b601d13706fd8cc10f9ccff7b8f1"),
}


def _scenario(overrides, priority_nodes):
    topology = nsfnet_topology(capacity=1e6, propagation_delay=0.002)
    for node in topology.nodes():
        if node % 2 == 0:
            topology.set_queue_size(node, 1)
        if priority_nodes and node % 3 == 0:
            topology.set_scheduling(node, "priority")
    routing = shortest_path_routing(topology)
    traffic = uniform_traffic(topology.num_nodes, 1e3, 2e4, rng=np.random.default_rng(7))
    traffic = scaled_to_utilization(traffic, routing, 0.8)
    priorities = ({pair: (pair[0] + pair[1]) % 2 for pair in routing.pairs()}
                  if priority_nodes else None)
    config = SimulationConfig(duration=2.0, warmup=0.2, seed=11, flow_priorities=priorities,
                              **overrides)
    return topology, routing, traffic, config


def result_digest(result, pair_order):
    """SHA-256 over the delay/loss/jitter vectors and every per-flow and per-link stat."""
    digest = hashlib.sha256()
    jitters = [result.flow_stats[pair].jitter if pair in result.flow_stats else np.nan
               for pair in pair_order]
    for vector in (result.delays_vector(pair_order), result.loss_vector(pair_order),
                   np.array(jitters, dtype=np.float64)):
        digest.update(vector.tobytes())
    for pair in sorted(result.flow_stats):
        digest.update(repr(dataclasses.astuple(result.flow_stats[pair])).encode())
    for index in sorted(result.link_stats):
        digest.update(repr(dataclasses.astuple(result.link_stats[index])).encode())
    digest.update(repr((result.total_packets_generated, result.total_packets_delivered,
                        result.total_packets_dropped)).encode())
    return digest.hexdigest()


def run_scenario(name):
    overrides, priority_nodes, _, _ = GOLDEN[name]
    topology, routing, traffic, config = _scenario(overrides, priority_nodes)
    result = simulate_network(topology, routing, traffic, config)
    return result.events_processed, result_digest(result, routing.pairs())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulation_matches_golden(name):
    _, _, events, digest = GOLDEN[name]
    assert run_scenario(name) == (events, digest)
