"""Directed links: a transmitter draining an output queue onto a wire."""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.simulator.engine import Simulator
from repro.simulator.packet import Packet
from repro.simulator.queues import DropTailQueue

__all__ = ["Link"]


class Link:
    """A directed link with its output-port queue.

    The link transmits one packet at a time at ``capacity`` bits/s; the
    packet then propagates for ``propagation_delay`` seconds before being
    handed to ``deliver`` (normally the arrival handler of the downstream
    node).  Waiting packets are held in a :class:`DropTailQueue` whose size
    is the *source node's* queue size — the per-device feature the extended
    model learns.

    The events a link schedules carry no packet.  Packets that left the
    queue and have not arrived yet (the one on the wire, then those
    propagating) wait on the link in a FIFO, and each arrival event pops
    its head.  That is exact because arrival events fire in the order the
    link scheduled them: transmissions run one at a time, so finish times
    never decrease; the propagation delay is constant, so arrival times
    never decrease either; and the engine breaks ties in scheduling order.
    """

    def __init__(
        self,
        simulator: Simulator,
        source: int,
        target: int,
        capacity: float,
        propagation_delay: float,
        queue_capacity: int,
        deliver: Callable[[Packet], None],
        queue: Optional[DropTailQueue] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation delay must be non-negative")
        self.simulator = simulator
        self.source = int(source)
        self.target = int(target)
        self.capacity = float(capacity)
        self.propagation_delay = float(propagation_delay)
        # A custom queue (e.g. strict-priority) may be injected; by default the
        # output port is a plain FIFO drop-tail buffer of the requested size.
        self.queue = queue if queue is not None else DropTailQueue(queue_capacity)
        self.deliver = deliver
        self.busy = False
        self._in_flight: Deque[Packet] = deque()
        # Statistics
        self.packets_sent = 0
        self.bits_sent = 0.0
        self.busy_time = 0.0

    # ------------------------------------------------------------------ #
    def transmission_time(self, packet: Packet) -> float:
        """Serialisation delay of ``packet`` on this link."""
        return packet.size_bits / self.capacity

    def send(self, packet: Packet) -> bool:
        """Accept a packet for transmission.

        If the transmitter is idle the packet starts serialising immediately;
        otherwise it joins the queue.  Returns False when the queue is full
        and the packet is dropped.
        """
        if not self.busy:
            self._start_transmission(packet)
            return True
        return self.queue.enqueue(packet, self.simulator.now)

    def _start_transmission(self, packet: Packet) -> None:
        self.busy = True
        self._in_flight.append(packet)
        duration = self.transmission_time(packet)
        self.busy_time += duration
        self.packets_sent += 1
        self.bits_sent += packet.size_bits
        self.simulator.schedule(duration, self._finish_transmission)

    def _finish_transmission(self) -> None:
        # The wire is free as soon as the last bit leaves; propagation happens
        # "in flight" and does not block the next transmission.
        self.simulator.schedule(self.propagation_delay, self._arrive)
        next_packet = self.queue.dequeue(self.simulator.now)
        if next_packet is None:
            self.busy = False
        else:
            self._start_transmission(next_packet)

    def _arrive(self) -> None:
        self.deliver(self._in_flight.popleft())

    # ------------------------------------------------------------------ #
    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the transmitter was busy."""
        horizon = elapsed if elapsed is not None else self.simulator.now
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    def __repr__(self) -> str:
        return (f"Link({self.source}->{self.target}, {self.capacity:.3g} bps, "
                f"queue={self.queue.capacity_packets})")
