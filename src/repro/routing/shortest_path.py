"""Routing-scheme constructors: shortest path, weighted variants, k-SP mixtures."""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.routing.scheme import RoutingScheme
from repro.topology.graph import Topology

__all__ = [
    "shortest_path_routing",
    "weighted_shortest_path_routing",
    "k_shortest_paths",
    "random_variation_routing",
]


def shortest_path_routing(topology: Topology,
                          pairs: Optional[List[Tuple[int, int]]] = None) -> RoutingScheme:
    """Hop-count shortest-path routing for every (or the given) pairs.

    Ties are broken deterministically by preferring lexicographically smaller
    paths so that two calls with the same topology yield the same scheme.

    One reverse breadth-first search per destination gives every node's hop
    distance to it.  A path leaves each node by the smallest-id successor
    one hop closer to the destination: every such successor starts a
    shortest continuation, so this greedy choice is exactly the
    lexicographic minimum of all shortest paths.  An unreachable pair raises
    :class:`networkx.NetworkXNoPath`, an unknown source
    :class:`networkx.NodeNotFound`, as the graph search did.
    """
    selected_pairs = list(pairs) if pairs is not None else list(topology.pairs())
    successors: Dict[int, List[int]] = {node: [] for node in topology.nodes()}
    predecessors: Dict[int, List[int]] = {node: [] for node in successors}
    for spec in topology.links():
        successors[spec.source].append(spec.target)
        predecessors[spec.target].append(spec.source)
    trees: Dict[int, Dict[int, List[int]]] = {}
    paths: Dict[Tuple[int, int], List[int]] = {}
    for source, destination in selected_pairs:
        source, destination = int(source), int(destination)
        if source not in successors:
            raise nx.NodeNotFound(f"Source {source} not in G")
        if destination not in trees:
            trees[destination] = _shortest_paths_to(destination, successors, predecessors)
        if source not in trees[destination]:
            raise nx.NetworkXNoPath(
                f"Target {destination} cannot be reached from given sources")
        paths[(source, destination)] = trees[destination][source]
    return RoutingScheme(topology, paths)


def _shortest_paths_to(destination: int, successors: Dict[int, List[int]],
                       predecessors: Dict[int, List[int]]) -> Dict[int, List[int]]:
    """The routed path to ``destination`` from every node that can reach it.

    Nodes are reached level by level; a node's path is its smallest-id
    successor on the level below followed by that successor's path.
    """
    if destination not in predecessors:
        return {}
    hops = {destination: 0}
    paths = {destination: [destination]}
    frontier = [destination]
    while frontier:
        reached = []
        for node in frontier:
            for previous in predecessors[node]:
                if previous not in hops:
                    hops[previous] = hops[node] + 1
                    reached.append(previous)
        for node in reached:
            closer = hops[node] - 1
            next_hop = min(w for w in successors[node] if hops.get(w) == closer)
            paths[node] = [node] + paths[next_hop]
        frontier = reached
    return paths


def weighted_shortest_path_routing(topology: Topology, weight: Optional[str] = None,
                                   pairs: Optional[List[Tuple[int, int]]] = None
                                   ) -> RoutingScheme:
    """Shortest-path routing under a link weight.

    ``weight`` is ``None`` (hop count, :func:`shortest_path_routing`),
    ``"delay"`` or ``"inverse_capacity"`` as accepted by
    :meth:`repro.topology.graph.Topology.shortest_path`.  Ties go to the
    lexicographically smallest path.
    """
    if weight is None:
        return shortest_path_routing(topology, pairs=pairs)
    selected_pairs = list(pairs) if pairs is not None else list(topology.pairs())
    paths: Dict[Tuple[int, int], List[int]] = {}
    for source, destination in selected_pairs:
        candidates = topology.all_shortest_paths(source, destination, weight=weight)
        paths[(source, destination)] = min(candidates)
    return RoutingScheme(topology, paths)


def k_shortest_paths(topology: Topology, source: int, destination: int,
                     k: int) -> List[List[int]]:
    """The ``k`` shortest simple paths (by hop count) between two nodes."""
    return _k_shortest_paths(topology.to_networkx(), source, destination, k)


def _k_shortest_paths(graph: nx.DiGraph, source: int, destination: int,
                      k: int) -> List[List[int]]:
    if k < 1:
        raise ValueError("k must be at least 1")
    generator = nx.shortest_simple_paths(graph, int(source), int(destination))
    return [list(path) for path in islice(generator, k)]


def random_variation_routing(topology: Topology, k: int = 3,
                             rng: Optional[np.random.Generator] = None,
                             pairs: Optional[List[Tuple[int, int]]] = None
                             ) -> RoutingScheme:
    """Routing that picks, per pair, one of its ``k`` shortest paths at random.

    The paper's datasets include "diverse ... routing schemes"; this
    constructor provides that diversity while keeping every path close to
    shortest.  With ``rng`` fixed the scheme is reproducible.
    """
    generator = rng if rng is not None else np.random.default_rng()
    selected_pairs = list(pairs) if pairs is not None else list(topology.pairs())
    graph = topology.to_networkx()
    paths: Dict[Tuple[int, int], List[int]] = {}
    for source, destination in selected_pairs:
        candidates = _k_shortest_paths(graph, source, destination, k)
        choice = int(generator.integers(0, len(candidates)))
        paths[(source, destination)] = candidates[choice]
    return RoutingScheme(topology, paths)
