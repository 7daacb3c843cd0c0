"""The :class:`Topology` class: nodes with queue sizes, directed links with capacities.

The paper's central extension is letting the GNN see *node* features —
specifically the queue size of each forwarding device — in addition to the
link capacities the original RouteNet already modelled.  The topology
substrate therefore attaches:

* to every **node**: a queue size (in packets) for its output ports, and
* to every **directed link**: a capacity (in bits per second) and a
  propagation delay (in seconds).

Links are directed; an undirected physical cable is represented by two
directed links, matching how RouteNet's routing-derived paths traverse them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

__all__ = ["NodeSpec", "LinkSpec", "Topology", "DEFAULT_QUEUE_SIZE", "SMALL_QUEUE_SIZE"]

#: Queue size (packets) of a "standard" forwarding device in the paper's scenario.
DEFAULT_QUEUE_SIZE = 32
#: Queue size (packets) of the constrained device ("support for 1 packet only").
SMALL_QUEUE_SIZE = 1


#: Scheduling disciplines a forwarding device may apply at its output ports.
SCHEDULING_POLICIES = ("fifo", "priority")


@dataclasses.dataclass
class NodeSpec:
    """Configuration of one forwarding device.

    Attributes
    ----------
    queue_size:
        Output-port buffer size in packets.  The paper's evaluation mixes
        devices with a standard size and devices that can hold one packet.
    label:
        Optional human-readable name (city / PoP name).
    scheduling:
        Output-port scheduling discipline: ``"fifo"`` (the paper's setting)
        or ``"priority"`` (strict priority across traffic classes) — the
        "different forwarding behaviors" the paper names as the next
        node feature to model.
    """

    queue_size: int = DEFAULT_QUEUE_SIZE
    label: Optional[str] = None
    scheduling: str = "fifo"

    def __post_init__(self) -> None:
        if self.queue_size < 1:
            raise ValueError("queue_size must be at least 1 packet")
        if self.scheduling not in SCHEDULING_POLICIES:
            raise ValueError(f"scheduling must be one of {SCHEDULING_POLICIES}")


@dataclasses.dataclass
class LinkSpec:
    """Configuration of one directed link.

    Attributes
    ----------
    source, target:
        Node identifiers (0-based integers).
    capacity:
        Transmission capacity in bits per second.
    propagation_delay:
        One-way propagation delay in seconds.
    """

    source: int
    target: int
    capacity: float = 10e6
    propagation_delay: float = 0.001

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ValueError("self-loop links are not allowed")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.propagation_delay < 0:
            raise ValueError("propagation delay must be non-negative")


class Topology:
    """A directed network topology with per-node and per-link attributes.

    Nodes are integers ``0 .. num_nodes - 1``.  Directed links are indexed in
    insertion order; the index is the canonical identifier used by routing,
    dataset tensorisation and the models.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._graph = nx.DiGraph()
        self._link_order: List[Tuple[int, int]] = []
        #: ``(source, target) -> link index``, filled alongside the order.
        self._link_ids: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node_id: int, queue_size: int = DEFAULT_QUEUE_SIZE,
                 label: Optional[str] = None, scheduling: str = "fifo") -> None:
        """Add a forwarding device with the given output-queue size and scheduler."""
        spec = NodeSpec(queue_size=queue_size, label=label, scheduling=scheduling)
        self._graph.add_node(int(node_id), spec=spec)

    def add_link(self, source: int, target: int, capacity: float = 10e6,
                 propagation_delay: float = 0.001, bidirectional: bool = False) -> None:
        """Add a directed link; with ``bidirectional=True`` also add the reverse."""
        source, target = int(source), int(target)
        for node in (source, target):
            if node not in self._graph:
                raise KeyError(f"node {node} must be added before its links")
        spec = LinkSpec(source=source, target=target, capacity=capacity,
                        propagation_delay=propagation_delay)
        if self._graph.has_edge(source, target):
            raise ValueError(f"duplicate link {source}->{target}")
        self._graph.add_edge(source, target, spec=spec)
        self._link_ids[(source, target)] = len(self._link_order)
        self._link_order.append((source, target))
        if bidirectional:
            self.add_link(target, source, capacity=capacity,
                          propagation_delay=propagation_delay, bidirectional=False)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def num_links(self) -> int:
        return len(self._link_order)

    def nodes(self) -> List[int]:
        """Node identifiers in sorted order."""
        return sorted(self._graph.nodes)

    def links(self) -> List[LinkSpec]:
        """Link specifications in link-index order."""
        return [self._graph.edges[edge]["spec"] for edge in self._link_order]

    def node_spec(self, node_id: int) -> NodeSpec:
        """Return the :class:`NodeSpec` of ``node_id``."""
        try:
            return self._graph.nodes[int(node_id)]["spec"]
        except KeyError as error:
            raise KeyError(f"unknown node {node_id}") from error

    def link_spec(self, source: int, target: int) -> LinkSpec:
        """Return the :class:`LinkSpec` of the directed link ``source -> target``."""
        try:
            return self._graph.edges[int(source), int(target)]["spec"]
        except KeyError as error:
            raise KeyError(f"no link {source}->{target}") from error

    def link_index(self, source: int, target: int) -> int:
        """Return the canonical index of the directed link ``source -> target``."""
        try:
            return self._link_ids[int(source), int(target)]
        except KeyError as error:
            raise KeyError(f"no link {source}->{target}") from error

    def link_by_index(self, index: int) -> LinkSpec:
        """Return the link specification at position ``index``."""
        source, target = self._link_order[index]
        return self.link_spec(source, target)

    def has_link(self, source: int, target: int) -> bool:
        return self._graph.has_edge(int(source), int(target))

    def successors(self, node_id: int) -> List[int]:
        """Nodes reachable over one outgoing link of ``node_id``."""
        return sorted(self._graph.successors(int(node_id)))

    def predecessors(self, node_id: int) -> List[int]:
        """Nodes with a link into ``node_id``."""
        return sorted(self._graph.predecessors(int(node_id)))

    def degree(self, node_id: int) -> int:
        """Out-degree of ``node_id``."""
        return self._graph.out_degree(int(node_id))

    def queue_sizes(self) -> Dict[int, int]:
        """Mapping node id -> queue size in packets."""
        return {node: self.node_spec(node).queue_size for node in self.nodes()}

    def capacities(self) -> List[float]:
        """Link capacities in link-index order."""
        return [spec.capacity for spec in self.links()]

    def set_queue_size(self, node_id: int, queue_size: int) -> None:
        """Change the queue size of an existing node."""
        spec = self.node_spec(node_id)
        self._graph.nodes[int(node_id)]["spec"] = NodeSpec(
            queue_size=queue_size, label=spec.label, scheduling=spec.scheduling)

    def set_scheduling(self, node_id: int, scheduling: str) -> None:
        """Change the scheduling discipline of an existing node."""
        spec = self.node_spec(node_id)
        self._graph.nodes[int(node_id)]["spec"] = NodeSpec(
            queue_size=spec.queue_size, label=spec.label, scheduling=scheduling)

    def scheduling_policies(self) -> Dict[int, str]:
        """Mapping node id -> scheduling discipline."""
        return {node: self.node_spec(node).scheduling for node in self.nodes()}

    # ------------------------------------------------------------------ #
    # Graph algorithms
    # ------------------------------------------------------------------ #
    def is_strongly_connected(self) -> bool:
        """True when every node can reach every other node."""
        if self.num_nodes == 0:
            return False
        return nx.is_strongly_connected(self._graph)

    def shortest_path(self, source: int, target: int,
                      weight: Optional[str] = None) -> List[int]:
        """Shortest path as a list of node ids.

        ``weight`` may be ``None`` (hop count), ``"delay"`` (propagation
        delay) or ``"inverse_capacity"`` (prefer high-capacity links).
        """
        if weight is None:
            return nx.shortest_path(self._graph, int(source), int(target))
        return nx.shortest_path(self._graph, int(source), int(target),
                                weight=self._edge_weight_fn(weight))

    def all_shortest_paths(self, source: int, target: int,
                           weight: Optional[str] = None) -> List[List[int]]:
        """Every shortest path between ``source`` and ``target``."""
        if weight is None:
            return list(nx.all_shortest_paths(self._graph, int(source), int(target)))
        return list(nx.all_shortest_paths(self._graph, int(source), int(target),
                                          weight=self._edge_weight_fn(weight)))

    def _edge_weight_fn(self, weight: str):
        if weight == "delay":
            return lambda u, v, data: data["spec"].propagation_delay
        if weight == "inverse_capacity":
            return lambda u, v, data: 1.0 / data["spec"].capacity
        raise ValueError(f"unknown weight '{weight}'")

    def path_links(self, path: Sequence[int]) -> List[int]:
        """Convert a node path to the list of link indices it traverses."""
        if len(path) < 2:
            raise ValueError("a path needs at least two nodes")
        return [self.link_index(u, v) for u, v in zip(path[:-1], path[1:])]

    def to_networkx(self) -> nx.DiGraph:
        """Return a copy of the underlying directed graph."""
        return self._graph.copy()

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def copy(self) -> "Topology":
        """Deep copy of the topology."""
        clone = Topology(name=self.name)
        for node in self.nodes():
            spec = self.node_spec(node)
            clone.add_node(node, queue_size=spec.queue_size, label=spec.label,
                           scheduling=spec.scheduling)
        for spec in self.links():
            clone.add_link(spec.source, spec.target, capacity=spec.capacity,
                           propagation_delay=spec.propagation_delay)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.nodes() == other.nodes()
            and [dataclasses.astuple(s) for s in self.links()]
            == [dataclasses.astuple(s) for s in other.links()]
            and self.queue_sizes() == other.queue_sizes()
        )

    def __repr__(self) -> str:
        return f"Topology(name='{self.name}', nodes={self.num_nodes}, links={self.num_links})"

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """All ordered (source, destination) pairs with distinct endpoints."""
        nodes = self.nodes()
        for source in nodes:
            for target in nodes:
                if source != target:
                    yield source, target
