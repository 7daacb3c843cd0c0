"""Queueing-theory delay estimators: M/M/1 and M/M/1/K network models.

Both models treat every directed link as an independent queue fed by the
aggregate of the flows routed over it (Kleinrock's independence assumption).
Per-path delay is the sum of per-link sojourn times plus propagation delays.

* :class:`MM1Model` assumes infinite buffers — it ignores queue sizes
  entirely, exactly like the original RouteNet's feature set.
* :class:`MM1KModel` models each output buffer as an M/M/1/K queue where
  ``K`` is the source node's queue size plus the packet in service, computes
  blocking probabilities, and thins flows hop by hop so downstream links see
  only the traffic that survived upstream drops.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from repro.routing.scheme import RoutingScheme
from repro.routing.tables import path_sums
from repro.topology.graph import Topology
from repro.traffic.matrix import TrafficMatrix

__all__ = [
    "mm1_waiting_time",
    "mm1k_blocking_probability",
    "mm1k_mean_queue_length",
    "QueueingPrediction",
    "QueueingNetworkModel",
    "MM1Model",
    "MM1KModel",
]


# ---------------------------------------------------------------------- #
# Single-queue formulas
# ---------------------------------------------------------------------- #
#: ``np.isclose(rho, 1.0)`` at its default tolerances is
#: ``abs(rho - 1.0) <= atol + rtol * 1.0``; the formulas test it as scalars.
_RHO_ONE_TOLERANCE = 1e-08 + 1e-05 * 1.0

def mm1_waiting_time(arrival_rate: float, service_rate: float) -> float:
    """Mean sojourn time (waiting + service) of an M/M/1 queue.

    Returns ``inf`` for overloaded queues (rho >= 1).
    """
    if arrival_rate < 0 or service_rate <= 0:
        raise ValueError("rates must be positive (arrival may be zero)")
    if arrival_rate >= service_rate:
        return float("inf")
    return 1.0 / (service_rate - arrival_rate)


def mm1k_blocking_probability(arrival_rate: float, service_rate: float, capacity: int) -> float:
    """Blocking probability of an M/M/1/K queue with ``capacity`` total places."""
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    if arrival_rate < 0 or service_rate <= 0:
        raise ValueError("rates must be positive (arrival may be zero)")
    if arrival_rate == 0:
        return 0.0
    rho = arrival_rate / service_rate
    if abs(rho - 1.0) <= _RHO_ONE_TOLERANCE:
        return 1.0 / (capacity + 1)
    return float((1 - rho) * rho ** capacity / (1 - rho ** (capacity + 1)))


def mm1k_mean_queue_length(arrival_rate: float, service_rate: float, capacity: int) -> float:
    """Mean number of packets in an M/M/1/K system (waiting + in service)."""
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    if arrival_rate < 0 or service_rate <= 0:
        raise ValueError("rates must be positive (arrival may be zero)")
    if arrival_rate == 0:
        return 0.0
    rho = arrival_rate / service_rate
    if abs(rho - 1.0) <= _RHO_ONE_TOLERANCE:
        return capacity / 2.0
    k = capacity
    return float(rho / (1 - rho) - (k + 1) * rho ** (k + 1) / (1 - rho ** (k + 1)))


# ---------------------------------------------------------------------- #
# Network models
# ---------------------------------------------------------------------- #
@dataclasses.dataclass
class QueueingPrediction:
    """Output of an analytic network model."""

    pair_order: List[Tuple[int, int]]
    delays: np.ndarray
    loss_ratios: np.ndarray
    link_utilizations: np.ndarray

    def delay(self, source: int, destination: int) -> float:
        """Delay prediction of one pair."""
        return float(self.delays[self.pair_order.index((source, destination))])

    def loss(self, source: int, destination: int) -> float:
        """Loss-ratio prediction of one pair."""
        return float(self.loss_ratios[self.pair_order.index((source, destination))])


class QueueingNetworkModel:
    """Shared machinery of the analytic models."""

    def __init__(self, mean_packet_size_bits: float = 8000.0) -> None:
        if mean_packet_size_bits <= 0:
            raise ValueError("packet size must be positive")
        self.mean_packet_size_bits = mean_packet_size_bits

    # -- hooks implemented by subclasses --------------------------------- #
    def _link_blocking(self, arrival_pps: float, service_pps: float,
                       queue_capacity: int) -> float:
        """Return one link's blocking probability: the fixed point's hook."""
        raise NotImplementedError

    def _link_metrics(self, arrival_pps: float, service_pps: float,
                      queue_capacity: int) -> Tuple[float, float]:
        """Return ``(sojourn_seconds, blocking_probability)`` for one link."""
        raise NotImplementedError

    # -- public API ------------------------------------------------------ #
    def predict(self, topology: Topology, routing: RoutingScheme,
                traffic: TrafficMatrix) -> QueueingPrediction:
        """Predict per-pair delay and loss for a scenario.

        Every path is processed at once over the routing's link matrix.
        Sums and products keep the order of a loop over pairs and hops: a
        flow is thinned by its hops' survival factors multiplied left to
        right, and link loads add up pair by pair, hop by hop.  So the
        results equal that loop's to the last bit.
        """
        if traffic.num_nodes != topology.num_nodes:
            raise ValueError("traffic matrix size does not match the topology")
        pair_order = routing.pairs()
        num_links = topology.num_links
        links = topology.links()
        service_pps = np.array([spec.capacity / self.mean_packet_size_bits for spec in links])
        queue_capacities = np.array(
            [topology.node_spec(spec.source).queue_size + 1 for spec in links], dtype=int)
        propagation = np.array([spec.propagation_delay for spec in links])

        # matrix[p, h] is the link at hop h of path p, -1 past its end.
        matrix = routing.link_matrix()
        hops = matrix >= 0
        rates = traffic.as_vector(pair_order) / self.mean_packet_size_bits
        # Pairs with rate <= 0 offer nothing (a NaN rate still does).
        offered = hops & ~(rates <= 0)[:, None]
        offered_links = matrix[offered]

        # Iterate the fixed point: blocking depends on arrivals, arrivals on blocking.
        blocking = np.zeros(num_links)
        for _ in range(self._fixed_point_iterations()):
            passing = np.append(1.0 - blocking, 1.0)[matrix]
            # Packets/s reaching each hop, thinned by upstream loss.
            surviving = np.cumprod(np.column_stack([rates, passing]), axis=1)[:, :-1]
            arrival_pps = np.bincount(offered_links, weights=surviving[offered],
                                      minlength=num_links)
            new_blocking = np.array([
                self._link_blocking(arrival_pps[l], service_pps[l], queue_capacities[l])
                for l in range(num_links)
            ])
            if np.allclose(new_blocking, blocking, atol=1e-9):
                blocking = new_blocking
                break
            blocking = new_blocking

        sojourn = np.array([
            self._link_metrics(arrival_pps[l], service_pps[l], queue_capacities[l])[0]
            for l in range(num_links)
        ])

        delays = path_sums(routing, sojourn) + path_sums(routing, propagation)
        # A path's delay is np.sum over its links.  path_sums matches it up to
        # 7 terms; np.sum adds 8 or more pairwise, so those rows use it.
        lengths = np.count_nonzero(hops, axis=1)
        for row in np.flatnonzero(lengths >= 8):
            path = matrix[row, :lengths[row]]
            delays[row] = np.sum(sojourn[path]) + np.sum(propagation[path])
        # np.prod multiplies left to right at every length.
        losses = 1.0 - np.prod(np.append(1.0 - blocking, 1.0)[matrix], axis=1)

        utilizations = np.minimum(arrival_pps / service_pps, 1.0)
        return QueueingPrediction(pair_order=pair_order, delays=delays,
                                  loss_ratios=losses, link_utilizations=utilizations)

    def predict_delays(self, topology: Topology, routing: RoutingScheme,
                       traffic: TrafficMatrix) -> np.ndarray:
        """Per-pair delays only (in :meth:`RoutingScheme.pairs` order)."""
        return self.predict(topology, routing, traffic).delays

    def _fixed_point_iterations(self) -> int:
        return 1


class MM1Model(QueueingNetworkModel):
    """Infinite-buffer M/M/1 network model (ignores queue sizes)."""

    def _link_blocking(self, arrival_pps: float, service_pps: float,
                       queue_capacity: int) -> float:
        return 0.0

    def _link_metrics(self, arrival_pps: float, service_pps: float,
                      queue_capacity: int) -> Tuple[float, float]:
        return mm1_waiting_time(arrival_pps, service_pps), 0.0


class MM1KModel(QueueingNetworkModel):
    """Finite-buffer M/M/1/K network model with loss-aware thinning."""

    def __init__(self, mean_packet_size_bits: float = 8000.0,
                 fixed_point_iterations: int = 8) -> None:
        super().__init__(mean_packet_size_bits)
        if fixed_point_iterations < 1:
            raise ValueError("need at least one fixed-point iteration")
        self._iterations = fixed_point_iterations

    def _fixed_point_iterations(self) -> int:
        return self._iterations

    def _link_blocking(self, arrival_pps: float, service_pps: float,
                       queue_capacity: int) -> float:
        return mm1k_blocking_probability(arrival_pps, service_pps, queue_capacity)

    def _link_metrics(self, arrival_pps: float, service_pps: float,
                      queue_capacity: int) -> Tuple[float, float]:
        blocking = mm1k_blocking_probability(arrival_pps, service_pps, queue_capacity)
        if arrival_pps <= 0:
            return 1.0 / service_pps, 0.0
        mean_in_system = mm1k_mean_queue_length(arrival_pps, service_pps, queue_capacity)
        effective_arrivals = arrival_pps * (1.0 - blocking)
        if effective_arrivals <= 0:
            return 1.0 / service_pps, blocking
        # Little's law on accepted packets.
        sojourn = mean_in_system / effective_arrivals
        return sojourn, blocking
