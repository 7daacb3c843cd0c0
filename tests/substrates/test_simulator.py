"""Tests for the discrete-event packet simulator.

Includes unit tests of the engine/queue/link/source components and
integration tests that validate end-to-end delays against queueing theory on
scenarios with known closed-form answers.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import shortest_path_routing
from repro.simulator import (
    DropTailQueue,
    Flow,
    NetworkSimulation,
    Packet,
    PoissonSource,
    SimulationConfig,
    Simulator,
    simulate_network,
)
from repro.simulator.events import EventQueue
from repro.simulator.link import Link
from repro.simulator.traffic_sources import ConstantBitRateSource, OnOffSource
from repro.topology import Topology, linear_topology, nsfnet_topology
from repro.traffic import TrafficMatrix, uniform_traffic


class TestEventQueue:
    def test_chronological_order(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(3.0, lambda: fired.append("c"))
        while (event := queue.pop()) is not None:
            event.callback()
        assert fired == ["a", "b", "c"]

    def test_ties_fifo(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, lambda: fired.append(1))
        queue.push(1.0, lambda: fired.append(2))
        queue.pop().callback()
        queue.pop().callback()
        assert fired == [1, 2]

    def test_cancel(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancel()
        assert queue.pop() is None
        assert len(queue) == 0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, lambda: None)

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(5.0, lambda: None)
        assert queue.peek_time() == 5.0


class TestSimulatorEngine:
    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]
        assert sim.events_processed == 2

    def test_run_until_exclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(1.0, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4

    def test_run_resumes_after_the_horizon(self):
        sim = Simulator()
        fired = []
        for time in (1.0, 2.0, 3.0):
            sim.schedule(time, lambda time=time: fired.append(time))
        sim.run(until=2.0)
        assert fired == [1.0] and sim.pending_events == 2
        sim.run()
        assert fired == [1.0, 2.0, 3.0] and sim.events_processed == 3

    def test_cancelled_event_is_skipped_and_not_counted(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        event.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert fired == [2] and sim.events_processed == 1

    def test_events_before_a_raising_callback_stay_counted(self):
        sim = Simulator()
        fired = []

        def fail():
            raise RuntimeError("callback failed")

        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, fail)
        sim.schedule(3.0, lambda: fired.append(3))
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.events_processed == 1 and sim.now == 2.0
        sim.run()
        assert fired == [1, 3] and sim.events_processed == 2

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_reset(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0


class TestDropTailQueue:
    def test_fifo_order(self):
        queue = DropTailQueue(5)
        packets = [Packet(i, (0, 1), 8000, 0.0) for i in range(3)]
        for p in packets:
            assert queue.enqueue(p, now=0.0)
        assert queue.dequeue(1.0) is packets[0]
        assert queue.dequeue(2.0) is packets[1]

    def test_drop_when_full(self):
        queue = DropTailQueue(2)
        assert queue.enqueue(Packet(0, (0, 1), 1, 0.0), 0.0)
        assert queue.enqueue(Packet(1, (0, 1), 1, 0.0), 0.0)
        overflow = Packet(2, (0, 1), 1, 0.0)
        assert not queue.enqueue(overflow, 0.0)
        assert overflow.dropped
        assert queue.drops == 1
        assert queue.drop_ratio == pytest.approx(1 / 3)

    def test_capacity_one_behaviour(self):
        queue = DropTailQueue(1)
        assert queue.enqueue(Packet(0, (0, 1), 1, 0.0), 0.0)
        assert not queue.enqueue(Packet(1, (0, 1), 1, 0.0), 0.0)
        queue.dequeue(0.5)
        assert queue.enqueue(Packet(2, (0, 1), 1, 0.0), 1.0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)

    def test_occupancy_statistics(self):
        queue = DropTailQueue(10)
        queue.enqueue(Packet(0, (0, 1), 1, 0.0), 0.0)
        queue.enqueue(Packet(1, (0, 1), 1, 0.0), 0.0)
        # Two packets waiting for the whole first second, then one.
        queue.dequeue(1.0)
        assert queue.average_occupancy(2.0) == pytest.approx((2 * 1.0 + 1 * 1.0) / 2.0)
        assert queue.max_occupancy == 2

    def test_dequeue_empty(self):
        assert DropTailQueue(2).dequeue(0.0) is None

    @given(st.integers(1, 8), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_capacity(self, capacity, arrivals):
        queue = DropTailQueue(capacity)
        for i in range(arrivals):
            queue.enqueue(Packet(i, (0, 1), 1, 0.0), float(i))
            assert len(queue) <= capacity


class TestLink:
    def _make_link(self, capacity=8000.0, prop=0.0, queue=4):
        sim = Simulator()
        delivered = []
        link = Link(sim, 0, 1, capacity, prop, queue, delivered.append)
        return sim, link, delivered

    def test_serialisation_delay(self):
        sim, link, delivered = self._make_link(capacity=8000.0)
        packet = Packet(0, (0, 1), size_bits=8000.0, created_at=0.0)
        link.send(packet)
        sim.run()
        assert sim.now == pytest.approx(1.0)
        assert delivered == [packet]

    def test_propagation_delay_added(self):
        sim, link, delivered = self._make_link(capacity=8000.0, prop=0.25)
        link.send(Packet(0, (0, 1), 8000.0, 0.0))
        sim.run()
        assert sim.now == pytest.approx(1.25)

    def test_back_to_back_transmissions_serialise(self):
        sim, link, delivered = self._make_link(capacity=8000.0)
        link.send(Packet(0, (0, 1), 8000.0, 0.0))
        link.send(Packet(1, (0, 1), 8000.0, 0.0))
        sim.run()
        assert len(delivered) == 2
        assert sim.now == pytest.approx(2.0)

    def test_queue_overflow_drops(self):
        sim, link, delivered = self._make_link(queue=1)
        assert link.send(Packet(0, (0, 1), 8000.0, 0.0))   # starts transmitting
        assert link.send(Packet(1, (0, 1), 8000.0, 0.0))   # waits in queue
        assert not link.send(Packet(2, (0, 1), 8000.0, 0.0))  # queue full -> drop
        sim.run()
        assert len(delivered) == 2

    def test_utilization(self):
        sim, link, _ = self._make_link(capacity=8000.0)
        link.send(Packet(0, (0, 1), 4000.0, 0.0))
        sim.run()
        assert link.utilization(1.0) == pytest.approx(0.5)

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, 0, 1, 0.0, 0.0, 1, lambda p: None)
        with pytest.raises(ValueError):
            Link(sim, 0, 1, 1.0, -1.0, 1, lambda p: None)


class TestTrafficSources:
    def test_poisson_rate(self):
        sim = Simulator()
        packets = []
        source = PoissonSource(sim, (0, 1), rate_bps=80_000.0, sink=packets.append,
                               mean_packet_size_bits=8000.0,
                               rng=np.random.default_rng(0))
        source.start(stop_time=50.0)
        sim.run(until=50.0)
        # Expect about 10 packets/s * 50 s = 500 packets.
        assert 400 <= len(packets) <= 600

    def test_cbr_deterministic(self):
        sim = Simulator()
        packets = []
        source = ConstantBitRateSource(sim, (0, 1), rate_bps=8000.0, sink=packets.append,
                                       mean_packet_size_bits=8000.0,
                                       rng=np.random.default_rng(0))
        source.start(stop_time=5.5)
        sim.run(until=10.0)
        assert len(packets) == 5
        assert all(p.size_bits == 8000.0 for p in packets)

    def test_onoff_long_run_rate(self):
        sim = Simulator()
        packets = []
        source = OnOffSource(sim, (0, 1), rate_bps=80_000.0, sink=packets.append,
                             mean_packet_size_bits=8000.0,
                             rng=np.random.default_rng(1),
                             mean_on_time=0.5, mean_off_time=0.5)
        source.start(stop_time=100.0)
        sim.run(until=100.0)
        # 10 packets/s on average over 100 s; allow generous tolerance for burstiness.
        assert 600 <= len(packets) <= 1400

    def test_zero_rate_source_idle(self):
        sim = Simulator()
        packets = []
        source = PoissonSource(sim, (0, 1), rate_bps=0.0, sink=packets.append)
        source.start(stop_time=10.0)
        sim.run()
        assert packets == []

    def test_stop(self):
        sim = Simulator()
        packets = []
        source = PoissonSource(sim, (0, 1), 80_000.0, packets.append,
                               rng=np.random.default_rng(2))
        source.start()
        sim.run(max_events=20)
        source.stop()
        count = len(packets)
        sim.run(max_events=100)
        assert len(packets) <= count + 1

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PoissonSource(sim, (0, 1), -1.0, lambda p: None)
        with pytest.raises(ValueError):
            PoissonSource(sim, (0, 1), 1.0, lambda p: None, mean_packet_size_bits=0)
        with pytest.raises(ValueError):
            OnOffSource(sim, (0, 1), 1.0, lambda p: None, mean_on_time=0.0)


class TestFlowDataclass:
    def test_valid(self):
        flow = Flow(0, 1, 1e6)
        assert flow.pair == (0, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Flow(0, 0, 1.0)
        with pytest.raises(ValueError):
            Flow(0, 1, -1.0)
        with pytest.raises(ValueError):
            Flow(0, 1, 1.0, source_model="quantum")


def _two_node_topology(capacity=1e6, queue_size=64):
    topology = Topology("pair")
    topology.add_node(0, queue_size=queue_size)
    topology.add_node(1, queue_size=queue_size)
    topology.add_link(0, 1, capacity=capacity, propagation_delay=0.0, bidirectional=True)
    return topology


class TestNetworkSimulation:
    def test_single_flow_delivery(self):
        topology = _two_node_topology()
        routing = shortest_path_routing(topology)
        traffic = TrafficMatrix.zeros(2)
        traffic.set_demand(0, 1, 100e3)  # 10% utilisation
        result = simulate_network(topology, routing, traffic,
                                  SimulationConfig(duration=5.0, warmup=0.5, seed=1))
        stats = result.flow_stats[(0, 1)]
        assert stats.packets_delivered > 0
        assert stats.loss_ratio < 0.01
        assert stats.average_delay > 0

    def test_mm1_delay_matches_theory(self):
        """At 50% load an M/M/1 queue has sojourn time 1/(mu - lambda)."""
        capacity = 1e6
        packet_bits = 8000.0
        utilisation = 0.5
        topology = _two_node_topology(capacity=capacity, queue_size=10_000)
        routing = shortest_path_routing(topology)
        traffic = TrafficMatrix.zeros(2)
        traffic.set_demand(0, 1, utilisation * capacity)
        result = simulate_network(
            topology, routing, traffic,
            SimulationConfig(duration=60.0, warmup=5.0, seed=3,
                             mean_packet_size_bits=packet_bits))
        stats = result.flow_stats[(0, 1)]
        mu = capacity / packet_bits
        lam = utilisation * mu
        expected = 1.0 / (mu - lam)
        assert stats.average_delay == pytest.approx(expected, rel=0.15)

    def test_tiny_queue_increases_loss_and_reduces_delay(self):
        """A 1-packet buffer must drop traffic and bound queueing delay."""
        capacity = 1e6
        traffic = TrafficMatrix.zeros(2)
        traffic.set_demand(0, 1, 0.9 * capacity)
        config = SimulationConfig(duration=30.0, warmup=2.0, seed=5)

        big = _two_node_topology(capacity=capacity, queue_size=64)
        small = _two_node_topology(capacity=capacity, queue_size=1)
        result_big = simulate_network(big, shortest_path_routing(big), traffic, config)
        result_small = simulate_network(small, shortest_path_routing(small), traffic, config)

        stats_big = result_big.flow_stats[(0, 1)]
        stats_small = result_small.flow_stats[(0, 1)]
        assert stats_small.loss_ratio > stats_big.loss_ratio
        assert stats_small.average_delay < stats_big.average_delay

    def test_multihop_delay_accumulates(self):
        topology = linear_topology(4, capacity=1e6, propagation_delay=0.001)
        routing = shortest_path_routing(topology)
        traffic = TrafficMatrix.zeros(4)
        traffic.set_demand(0, 3, 50e3)
        traffic.set_demand(0, 1, 50e3)
        result = simulate_network(topology, routing, traffic,
                                  SimulationConfig(duration=10.0, warmup=1.0, seed=7))
        long_path = result.flow_stats[(0, 3)].average_delay
        short_path = result.flow_stats[(0, 1)].average_delay
        assert long_path > short_path * 2

    def test_link_utilization_reported(self):
        topology = _two_node_topology(capacity=1e6)
        routing = shortest_path_routing(topology)
        traffic = TrafficMatrix.zeros(2)
        traffic.set_demand(0, 1, 400e3)
        result = simulate_network(topology, routing, traffic,
                                  SimulationConfig(duration=20.0, warmup=2.0, seed=11))
        forward_link = topology.link_index(0, 1)
        assert result.link_stats[forward_link].utilization == pytest.approx(0.4, abs=0.08)
        reverse_link = topology.link_index(1, 0)
        assert result.link_stats[reverse_link].utilization == pytest.approx(0.0, abs=1e-6)

    def test_deterministic_given_seed(self):
        topology = nsfnet_topology(capacity=1e6)
        routing = shortest_path_routing(topology)
        traffic = uniform_traffic(14, 1e3, 2e4, rng=np.random.default_rng(0))
        config = SimulationConfig(duration=2.0, warmup=0.2, seed=42)
        r1 = simulate_network(topology, routing, traffic, config)
        r2 = simulate_network(topology, routing, traffic, config)
        d1 = r1.delays_vector(routing.pairs())
        d2 = r2.delays_vector(routing.pairs())
        assert np.array_equal(d1, d2, equal_nan=True)
        assert r1.events_processed == r2.events_processed

    def test_packet_ids_count_from_zero_in_every_simulation(self):
        topology = _two_node_topology()
        routing = shortest_path_routing(topology)
        traffic = TrafficMatrix.zeros(2)
        traffic.set_demand(0, 1, 1e5)
        traffic.set_demand(1, 0, 1e5)
        config = SimulationConfig(duration=1.0, warmup=0.1, seed=4)

        def injected_ids():
            simulation = NetworkSimulation(topology, routing, traffic, config)
            ids = []
            inject = simulation._inject
            simulation._inject = lambda packet: (ids.append(packet.packet_id), inject(packet))
            simulation.run()
            return ids

        first, second = injected_ids(), injected_ids()
        assert first == list(range(len(first))) and len(first) > 10
        assert second == first

    def test_mismatched_traffic_size_raises(self):
        topology = _two_node_topology()
        routing = shortest_path_routing(topology)
        with pytest.raises(ValueError):
            simulate_network(topology, routing, TrafficMatrix.zeros(5))

    def test_traffic_without_route_raises(self):
        topology = _two_node_topology()
        routing = shortest_path_routing(topology, pairs=[(0, 1)])
        traffic = TrafficMatrix.zeros(2)
        traffic.set_demand(1, 0, 1e5)
        with pytest.raises(ValueError):
            simulate_network(topology, routing, traffic)

    def test_result_vectors_and_counters(self):
        topology = _two_node_topology()
        routing = shortest_path_routing(topology)
        traffic = TrafficMatrix.zeros(2)
        traffic.set_demand(0, 1, 2e5)
        result = simulate_network(topology, routing, traffic,
                                  SimulationConfig(duration=5.0, warmup=0.5, seed=2))
        delays = result.delays_vector([(0, 1), (1, 0)])
        assert delays[0] > 0
        assert math.isnan(delays[1])
        losses = result.loss_vector([(0, 1)])
        assert 0.0 <= losses[0] <= 1.0
        assert result.total_packets_generated >= result.total_packets_delivered
        assert 0.0 <= result.overall_loss_ratio <= 1.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimulationConfig(duration=0)
        with pytest.raises(ValueError):
            SimulationConfig(warmup=-1)
        with pytest.raises(ValueError):
            SimulationConfig(source_model="bogus")
        with pytest.raises(ValueError):
            SimulationConfig(mean_packet_size_bits=0)

    def test_onoff_source_model_runs(self):
        topology = _two_node_topology()
        routing = shortest_path_routing(topology)
        traffic = TrafficMatrix.zeros(2)
        traffic.set_demand(0, 1, 1e5)
        result = simulate_network(topology, routing, traffic,
                                  SimulationConfig(duration=5.0, warmup=0.5, seed=9,
                                                   source_model="onoff"))
        assert result.flow_stats[(0, 1)].packets_delivered > 0
