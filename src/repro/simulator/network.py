"""Assembling a full network simulation from topology + routing + traffic.

:func:`simulate_network` is the substitute for "run the OMNeT++ scenario":
it builds routers, links and traffic sources, runs the discrete-event engine
for a warm-up plus a measurement interval, and returns per-flow delay /
jitter / loss statistics and per-link utilisations.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from repro.routing.scheme import RoutingScheme
from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.metrics import FlowRecorder, LinkStats, SimulationResult
from repro.simulator.node import RouterNode
from repro.simulator.packet import Packet
from repro.simulator.queues import PriorityDropTailQueue
from repro.simulator.traffic_sources import (
    ConstantBitRateSource,
    DEFAULT_PACKET_SIZE_BITS,
    OnOffSource,
    PoissonSource,
)
from repro.topology.graph import Topology
from repro.traffic.matrix import TrafficMatrix

__all__ = ["SimulationConfig", "NetworkSimulation", "simulate_network"]

_SOURCE_CLASSES = {
    "poisson": PoissonSource,
    "onoff": OnOffSource,
    "cbr": ConstantBitRateSource,
}


@dataclasses.dataclass
class SimulationConfig:
    """Run-control parameters of a packet-level simulation.

    ``exponential_packet_sizes`` draws each packet's size from an
    exponential distribution around ``mean_packet_size_bits`` for Poisson
    and on-off sources; CBR sources always send packets of exactly the mean
    size.  ``flow_priorities`` optionally maps ``(source, destination)``
    pairs to a traffic class (0 = highest priority); it only affects nodes
    whose scheduling discipline is ``"priority"``.
    """

    duration: float = 10.0
    warmup: float = 1.0
    mean_packet_size_bits: float = DEFAULT_PACKET_SIZE_BITS
    source_model: str = "poisson"
    exponential_packet_sizes: bool = True
    seed: int = 0
    flow_priorities: Optional[Dict[Tuple[int, int], int]] = None
    num_traffic_classes: int = 2

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.mean_packet_size_bits <= 0:
            raise ValueError("packet size must be positive")
        if self.source_model not in _SOURCE_CLASSES:
            raise ValueError(f"unknown source model '{self.source_model}'")
        if self.num_traffic_classes < 1:
            raise ValueError("num_traffic_classes must be at least 1")
        if self.flow_priorities:
            for pair, priority in self.flow_priorities.items():
                if priority < 0 or priority >= self.num_traffic_classes:
                    raise ValueError(f"priority of flow {pair} out of range")


class NetworkSimulation:
    """A fully wired simulation ready to :meth:`run`."""

    def __init__(self, topology: Topology, routing: RoutingScheme,
                 traffic: TrafficMatrix, config: Optional[SimulationConfig] = None) -> None:
        if traffic.num_nodes != topology.num_nodes:
            raise ValueError("traffic matrix size does not match the topology")
        self.topology = topology
        self.routing = routing
        self.traffic = traffic
        self.config = config if config is not None else SimulationConfig()
        self.simulator = Simulator()
        self._rng = np.random.default_rng(self.config.seed)
        self._recorders: Dict[Tuple[int, int], FlowRecorder] = {}
        self._nodes: Dict[int, RouterNode] = {}
        self._links: Dict[int, Link] = {}
        # The link each flow's packets leave their source host on, filled in
        # with the sources.
        self._first_links: Dict[Tuple[int, int], Link] = {}
        self._measuring = False
        self._build()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        for node_id in self.topology.nodes():
            spec = self.topology.node_spec(node_id)
            self._nodes[node_id] = RouterNode(
                node_id,
                queue_size=spec.queue_size,
                on_delivered=self._handle_delivery,
                on_dropped=self._handle_drop,
            )
        for index, spec in enumerate(self.topology.links()):
            target_node = self._nodes[spec.target]
            source_spec = self.topology.node_spec(spec.source)
            queue = None
            if source_spec.scheduling == "priority":
                queue = PriorityDropTailQueue(source_spec.queue_size,
                                              num_classes=self.config.num_traffic_classes)
            link = Link(
                self.simulator,
                source=spec.source,
                target=spec.target,
                capacity=spec.capacity,
                propagation_delay=spec.propagation_delay,
                queue_capacity=source_spec.queue_size,
                deliver=target_node.receive,
                queue=queue,
            )
            self._links[index] = link
            self._nodes[spec.source].attach_output_link(spec.target, link)
        # Install per-flow routes.
        for (source, destination), path in self.routing.items():
            if self.traffic.demand(source, destination) <= 0:
                continue
            for position, node in enumerate(path[:-1]):
                self._nodes[node].set_route((source, destination), path[position + 1])

    def _make_sources(self) -> list:
        sources = []
        source_cls = _SOURCE_CLASSES[self.config.source_model]
        for src, dst, rate in self.traffic.pairs():
            if not self.routing.has_path(src, dst):
                raise ValueError(f"traffic for pair ({src},{dst}) has no route")
            flow_rng = np.random.default_rng(self._rng.integers(0, 2 ** 63 - 1))
            priorities = self.config.flow_priorities or {}
            source = source_cls(
                self.simulator,
                flow=(src, dst),
                rate_bps=rate,
                sink=self._inject,
                mean_packet_size_bits=self.config.mean_packet_size_bits,
                rng=flow_rng,
                exponential_packet_sizes=self.config.exponential_packet_sizes,
                priority=priorities.get((src, dst), 0),
            )
            self._recorders[(src, dst)] = FlowRecorder((src, dst))
            path = self.routing.path(src, dst)
            self._first_links[source.flow] = self._nodes[path[0]].output_link(path[1])
            sources.append(source)
        return sources

    # ------------------------------------------------------------------ #
    # Packet callbacks
    # ------------------------------------------------------------------ #
    def _inject(self, packet: Packet) -> None:
        if self._measuring:
            self._recorders[packet.flow].record_sent()
        packet.record_hop(packet.source)
        # The packet leaves the source host through the first link of its path.
        accepted = self._first_links[packet.flow].send(packet)
        if not accepted and self._measuring:
            self._recorders[packet.flow].record_dropped()

    def _handle_delivery(self, packet: Packet) -> None:
        if not self._measuring or packet.created_at < self._measurement_start:
            return
        delay = self.simulator.now - packet.created_at
        self._recorders[packet.flow].record_delivery(delay)

    def _handle_drop(self, packet: Packet, node_id: int) -> None:
        if not self._measuring or packet.created_at < self._measurement_start:
            return
        recorder = self._recorders.get(packet.flow)
        if recorder is not None:
            recorder.record_dropped()

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute warm-up then measurement and return the aggregated result."""
        config = self.config
        sources = self._make_sources()
        horizon = config.warmup + config.duration
        for source in sources:
            source.start(stop_time=horizon)

        # Warm-up: run without recording to reach steady state.
        self._measuring = False
        self._measurement_start = config.warmup
        if config.warmup > 0:
            self.simulator.run(until=config.warmup)
        self._measuring = True
        self.simulator.run(until=horizon)
        # Let in-flight packets drain (sources have stopped by now).
        self.simulator.run(max_events=2_000_000)
        self._measuring = False

        return self._collect(config)

    def _collect(self, config: SimulationConfig) -> SimulationResult:
        flow_stats = {}
        total_sent = total_delivered = total_dropped = 0
        for pair, recorder in self._recorders.items():
            stats = recorder.finalize()
            if stats is None:
                continue
            flow_stats[pair] = stats
            total_sent += stats.packets_sent
            total_delivered += stats.packets_delivered
            total_dropped += stats.packets_dropped

        link_stats = {}
        for index, link in self._links.items():
            link_stats[index] = LinkStats(
                link_index=index,
                source=link.source,
                target=link.target,
                utilization=link.utilization(config.warmup + config.duration),
                packets_sent=link.packets_sent,
                queue_drops=link.queue.drops,
                average_queue_occupancy=link.queue.average_occupancy(self.simulator.now),
                max_queue_occupancy=link.queue.max_occupancy,
            )

        return SimulationResult(
            duration=config.duration,
            warmup=config.warmup,
            flow_stats=flow_stats,
            link_stats=link_stats,
            total_packets_generated=total_sent,
            total_packets_delivered=total_delivered,
            total_packets_dropped=total_dropped,
            events_processed=self.simulator.events_processed,
        )


def simulate_network(topology: Topology, routing: RoutingScheme, traffic: TrafficMatrix,
                     config: Optional[SimulationConfig] = None) -> SimulationResult:
    """Convenience wrapper: build a :class:`NetworkSimulation` and run it."""
    return NetworkSimulation(topology, routing, traffic, config).run()
