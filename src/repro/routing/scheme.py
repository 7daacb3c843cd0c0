"""The :class:`RoutingScheme` container: one path per source-destination pair."""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.graph import Topology

__all__ = ["RoutingScheme"]

PathKey = Tuple[int, int]


class RoutingScheme:
    """A mapping from (source, destination) pairs to node paths.

    The scheme is validated against a topology: every consecutive pair of
    nodes in a path must be joined by a directed link, the path must start at
    the source and end at the destination, and it must not revisit nodes.
    ``validate=False`` skips that per-hop validation and adopts ``paths``
    as given — strictly for paths that were *already* validated by a scheme
    instance and round-tripped through trusted storage (the binary shard
    codec, whose freshly built dict maps ``(int, int)`` pairs to lists of
    ints that nothing else holds), where re-walking or even re-copying
    every path would dominate the decode cost.
    """

    def __init__(self, topology: Topology, paths: Dict[PathKey, Sequence[int]],
                 validate: bool = True) -> None:
        self.topology = topology
        self._paths: Dict[PathKey, List[int]] = {}
        self._link_matrix: Optional[np.ndarray] = None
        if validate:
            for (source, destination), path in paths.items():
                source, destination = int(source), int(destination)
                path = [int(n) for n in path]
                self._validate_path(source, destination, path)
                self._paths[(source, destination)] = path
        else:
            self._paths = dict(paths)

    def _validate_path(self, source: int, destination: int, path: List[int]) -> None:
        if source == destination:
            raise ValueError("routing entries must join distinct endpoints")
        if len(path) < 2:
            raise ValueError(f"path for ({source},{destination}) is too short: {path}")
        if path[0] != source or path[-1] != destination:
            raise ValueError(
                f"path for ({source},{destination}) must start/end at the endpoints, got {path}")
        if len(set(path)) != len(path):
            raise ValueError(f"path for ({source},{destination}) revisits a node: {path}")
        for u, v in zip(path[:-1], path[1:]):
            if not self.topology.has_link(u, v):
                raise ValueError(
                    f"path for ({source},{destination}) uses a missing link {u}->{v}")

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def num_paths(self) -> int:
        return len(self._paths)

    def pairs(self) -> List[PathKey]:
        """The (source, destination) pairs in deterministic (sorted) order."""
        return sorted(self._paths.keys())

    def path(self, source: int, destination: int) -> List[int]:
        """Node path for one pair."""
        try:
            return list(self._paths[(int(source), int(destination))])
        except KeyError as error:
            raise KeyError(f"no route for pair ({source}, {destination})") from error

    def has_path(self, source: int, destination: int) -> bool:
        return (int(source), int(destination)) in self._paths

    def items(self) -> Iterator[Tuple[PathKey, List[int]]]:
        """Iterate ``((source, destination), node_path)`` in sorted pair order."""
        for pair in self.pairs():
            yield pair, list(self._paths[pair])

    # ------------------------------------------------------------------ #
    # Views used by the models and the simulator
    # ------------------------------------------------------------------ #
    def link_path(self, source: int, destination: int) -> List[int]:
        """The path of one pair expressed as link indices."""
        return self.topology.path_links(self.path(source, destination))

    def link_paths(self) -> List[List[int]]:
        """Link-index paths for every pair, in :meth:`pairs` order."""
        return [row[row >= 0].tolist() for row in self.link_matrix()]

    def link_matrix(self) -> np.ndarray:
        """Link-index paths as one read-only ``(num_paths, max_links)`` array.

        Row ``p`` holds the links of the ``p``-th pair in :meth:`pairs`
        order, then ``-1`` up to the longest path's length, so a per-link
        array with one extra trailing entry, indexed by the matrix, reads
        that entry at the padding.  Built on first use and kept, since a
        scheme's paths never change.
        """
        if self._link_matrix is None:
            paths = [self.topology.path_links(self._paths[pair]) for pair in self.pairs()]
            lengths = np.array([len(path) for path in paths], dtype=np.int64)
            matrix = np.full((len(paths), int(lengths.max(initial=0))), -1, dtype=np.int64)
            matrix[np.arange(matrix.shape[1]) < lengths[:, None]] = np.fromiter(
                itertools.chain.from_iterable(paths), dtype=np.int64, count=int(lengths.sum()))
            matrix.flags.writeable = False
            self._link_matrix = matrix
        return self._link_matrix

    def node_paths(self) -> List[List[int]]:
        """Node paths for every pair, in :meth:`pairs` order."""
        return [self.path(source, destination) for source, destination in self.pairs()]

    def next_hop(self, current: int, destination: int) -> Optional[int]:
        """Next hop from ``current`` towards ``destination``.

        Forwarding follows the pre-computed end-to-end paths: ``current``
        must be on the path of some pair ending at ``destination``.  Returns
        ``None`` when no path through ``current`` reaches ``destination``.
        """
        for (source, dest), path in self._paths.items():
            if dest != destination:
                continue
            if current in path[:-1]:
                return path[path.index(current) + 1]
        return None

    def average_path_length(self) -> float:
        """Mean number of links per path."""
        if not self._paths:
            raise ValueError("routing scheme is empty")
        return sum(len(p) - 1 for p in self._paths.values()) / len(self._paths)

    def links_used(self) -> List[int]:
        """Sorted list of link indices used by at least one path."""
        used = set()
        for path in self._paths.values():
            used.update(self.topology.path_links(path))
        return sorted(used)

    def paths_through_link(self, link_index: int) -> List[PathKey]:
        """Pairs whose path traverses the given link."""
        result = []
        for pair in self.pairs():
            if link_index in self.topology.path_links(self._paths[pair]):
                result.append(pair)
        return result

    def paths_through_node(self, node: int) -> List[PathKey]:
        """Pairs whose path traverses (or terminates at) the given node."""
        return [pair for pair in self.pairs() if node in self._paths[pair]]

    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        return {
            "paths": [
                {"source": s, "destination": d, "path": list(self._paths[(s, d)])}
                for s, d in self.pairs()
            ]
        }

    @classmethod
    def from_dict(cls, topology: Topology, payload: Dict) -> "RoutingScheme":
        """Rebuild a scheme from :meth:`to_dict` output."""
        paths = {(entry["source"], entry["destination"]): entry["path"]
                 for entry in payload["paths"]}
        return cls(topology, paths)

    def __repr__(self) -> str:
        return f"RoutingScheme(paths={self.num_paths}, topology='{self.topology.name}')"
