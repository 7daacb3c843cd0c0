"""Alternative routing representations: routing matrices and next-hop tables."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.routing.scheme import RoutingScheme

__all__ = ["routing_matrix", "path_sums", "next_hop_tables"]


def routing_matrix(scheme: RoutingScheme) -> np.ndarray:
    """Binary matrix ``R[p, l] = 1`` when path ``p`` traverses link ``l``.

    Rows follow :meth:`RoutingScheme.pairs` order; columns follow the
    topology's link-index order.  This is the classic "routing matrix" input
    of analytic network models and is also handy for vectorised utilisation
    computations.
    """
    links = scheme.link_matrix()
    rows, hops = np.nonzero(links >= 0)
    matrix = np.zeros((scheme.num_paths, scheme.topology.num_links), dtype=np.int8)
    matrix[rows, links[rows, hops]] = 1
    return matrix


def path_sums(scheme: RoutingScheme, link_values: Sequence[float]) -> np.ndarray:
    """Per-path sums of a per-link quantity, in :meth:`RoutingScheme.pairs` order.

    Each path's terms are added from its first link to its last, one hop
    column at a time, so every sum equals Python's ``sum`` over the path
    to the last bit.  Below 8 terms ``np.sum`` also adds left to right and
    gives the same sums, up to the sign of a zero.
    """
    values = np.append(np.asarray(link_values, dtype=np.float64), 0.0)[scheme.link_matrix()]
    totals = np.zeros(values.shape[0])
    for column in values.T:
        totals += column
    return totals


def next_hop_tables(scheme: RoutingScheme) -> Dict[int, Dict[int, int]]:
    """Per-node forwarding tables ``table[node][destination] -> next hop``.

    This is the representation the packet-level simulator consumes: a packet
    at ``node`` destined to ``destination`` is forwarded to
    ``table[node][destination]``.  Raises ``ValueError`` when two paths
    through the same node towards the same destination disagree on the next
    hop (the scheme would not be realisable with destination-based
    forwarding); such schemes must be simulated with per-flow forwarding
    instead.
    """
    tables: Dict[int, Dict[int, int]] = {node: {} for node in scheme.topology.nodes()}
    for (source, destination), path in scheme.items():
        for position, node in enumerate(path[:-1]):
            next_hop = path[position + 1]
            existing: Optional[int] = tables[node].get(destination)
            if existing is not None and existing != next_hop:
                raise ValueError(
                    f"conflicting next hops at node {node} towards {destination}: "
                    f"{existing} vs {next_hop}")
            tables[node][destination] = next_hop
    return tables
