"""Forwarding devices: routers that look up next hops and feed output links."""

from __future__ import annotations

from typing import Callable, Dict

from repro.simulator.link import Link
from repro.simulator.packet import Packet

__all__ = ["RouterNode"]


class RouterNode:
    """A store-and-forward router.

    A packet arriving at the router is either delivered locally (when the
    router is the packet's destination) or forwarded on the output link
    towards ``forwarding_table[destination]``.  Forwarding is assumed to take
    negligible processing time compared to transmission and propagation, as
    in the paper's simulator.
    """

    def __init__(self, node_id: int, queue_size: int,
                 on_delivered: Callable[[Packet], None],
                 on_dropped: Callable[[Packet, int], None]) -> None:
        self.node_id = int(node_id)
        self.queue_size = int(queue_size)
        self._on_delivered = on_delivered
        self._on_dropped = on_dropped
        self._output_links: Dict[int, Link] = {}
        # Per-flow forwarding straight to the output link: one dict lookup
        # per packet.
        self._forwarding_table: Dict[tuple, Link] = {}
        # Statistics
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_delivered = 0
        self.packets_dropped = 0

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach_output_link(self, neighbor: int, link: Link) -> None:
        """Register the output link towards ``neighbor``."""
        self._output_links[int(neighbor)] = link

    def set_route(self, flow: tuple, next_hop: int) -> None:
        """Install the next hop for a ``(source, destination)`` flow.

        Forwarding is per-flow (not merely per-destination) so that routing
        schemes with non-destination-based paths remain simulable.  The
        route holds the output link attached towards ``next_hop`` now.
        """
        link = self._output_links.get(int(next_hop))
        if link is None:
            raise KeyError(f"node {self.node_id} has no output link to {next_hop}")
        self._forwarding_table[(int(flow[0]), int(flow[1]))] = link

    def output_link(self, neighbor: int) -> Link:
        """The output link towards ``neighbor``."""
        return self._output_links[int(neighbor)]

    # ------------------------------------------------------------------ #
    # Packet handling
    # ------------------------------------------------------------------ #
    def receive(self, packet: Packet) -> None:
        """Handle a packet arriving at this router."""
        self.packets_received += 1
        packet.record_hop(self.node_id)
        if packet.destination == self.node_id:
            self.packets_delivered += 1
            self._on_delivered(packet)
            return
        link = self._forwarding_table.get(packet.flow)
        if link is None:
            self.packets_dropped += 1
            packet.dropped = True
            self._on_dropped(packet, self.node_id)
            return
        if link.send(packet):
            self.packets_forwarded += 1
        else:
            self.packets_dropped += 1
            self._on_dropped(packet, self.node_id)

    def __repr__(self) -> str:
        return f"RouterNode(id={self.node_id}, queue_size={self.queue_size})"
