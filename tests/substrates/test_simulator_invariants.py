"""Property tests: packet conservation and per-flow FIFO delivery.

Hypothesis draws small ring, linear and star topologies with random queue
sizes (1-packet queues included), loads, propagation delays and source
models.  Every run is followed packet by packet:

* conservation — after :meth:`NetworkSimulation.run` drains the network,
  each generated packet was delivered or dropped exactly once and nothing
  is left queued, on a wire or in flight;
* per-flow FIFO — each flow's packets reach their destination in the order
  they were created.  A flow follows one path of FIFO queues and constant
  propagation delays, so no packet can overtake another of its flow; the
  link's in-flight FIFO relies on exactly this.

The ledger also checks, packet by packet, that a CBR source sends every
packet at exactly the configured mean size.
"""

from collections import Counter, defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import shortest_path_routing
from repro.simulator import NetworkSimulation, SimulationConfig
from repro.topology import linear_topology, ring_topology, star_topology
from repro.traffic import uniform_traffic
from repro.traffic.generators import scaled_to_utilization

_TOPOLOGIES = {
    "ring": ring_topology,
    "linear": linear_topology,
    "star": lambda nodes, **kwargs: star_topology(nodes - 1, **kwargs),
}


class _LedgerSimulation(NetworkSimulation):
    """A simulation that records every packet's creation, delivery and drop."""

    def run(self):
        self.created = []
        self.deliveries = Counter()
        self.drops = Counter()
        self.arrival_order = defaultdict(list)
        return super().run()

    def _inject(self, packet):
        if self.config.source_model == "cbr":
            # CBR sources send fixed sizes whatever the config's
            # exponential_packet_sizes says.
            assert packet.size_bits == self.config.mean_packet_size_bits
        self.created.append(packet)
        super()._inject(packet)
        if packet.dropped:  # the first link's queue was full
            self.drops[packet.packet_id] += 1

    def _handle_delivery(self, packet):
        self.deliveries[packet.packet_id] += 1
        self.arrival_order[packet.flow].append(packet)
        super()._handle_delivery(packet)

    def _handle_drop(self, packet, node_id):
        self.drops[packet.packet_id] += 1
        super()._handle_drop(packet, node_id)


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(sorted(_TOPOLOGIES)))
    nodes = draw(st.integers(3, 6))
    topology = _TOPOLOGIES[kind](nodes, capacity=1e6,
                               propagation_delay=draw(st.sampled_from([0.0, 0.001])))
    for node in topology.nodes():
        topology.set_queue_size(node, draw(st.sampled_from([1, 2, 4, 32])))
    routing = shortest_path_routing(topology)
    seed = draw(st.integers(0, 2 ** 16))
    traffic = uniform_traffic(topology.num_nodes, 1e3, 2e4, rng=np.random.default_rng(seed))
    traffic = scaled_to_utilization(traffic, routing, draw(st.floats(0.2, 1.3)))
    config = SimulationConfig(duration=0.3, warmup=draw(st.sampled_from([0.0, 0.05])),
                              seed=seed,
                              source_model=draw(st.sampled_from(["poisson", "onoff", "cbr"])))
    return _LedgerSimulation(topology, routing, traffic, config)


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_every_packet_is_delivered_or_dropped_exactly_once(simulation):
    simulation.run()
    assert simulation.created
    for packet in simulation.created:
        outcomes = simulation.deliveries[packet.packet_id] + simulation.drops[packet.packet_id]
        assert outcomes == 1, f"packet {packet.packet_id} ended {outcomes} times"
    assert sum(simulation.deliveries.values()) + sum(simulation.drops.values()) == len(
        simulation.created)
    # The drain ran to the end: a packet still queued, on a wire or
    # propagating would have an event pending.
    assert simulation.simulator.pending_events == 0


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_each_flow_arrives_in_creation_order(simulation):
    simulation.run()
    assert simulation.arrival_order
    for flow, packets in simulation.arrival_order.items():
        # Packet ids are handed out in creation order.
        ids = [packet.packet_id for packet in packets]
        assert ids == sorted(ids), f"flow {flow} delivered out of order"
