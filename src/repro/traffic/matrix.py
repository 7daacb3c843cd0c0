"""The :class:`TrafficMatrix`: average offered load per source-destination pair."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["TrafficMatrix"]


class TrafficMatrix:
    """End-to-end demands in bits per second.

    The matrix is dense over ``num_nodes`` x ``num_nodes`` with a zero
    diagonal.  Values are average offered traffic (bits/s) for each ordered
    pair; the simulator converts them to packet arrival processes and the
    models encode them into the initial path states.
    """

    def __init__(self, demands: np.ndarray) -> None:
        demands = np.asarray(demands, dtype=np.float64)
        if demands.ndim != 2 or demands.shape[0] != demands.shape[1]:
            raise ValueError("demands must be a square matrix")
        if np.any(demands < 0):
            raise ValueError("demands must be non-negative")
        if np.any(np.diag(demands) != 0):
            raise ValueError("self-demands (diagonal entries) must be zero")
        self._demands = demands.copy()

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self._demands.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """A copy of the demand matrix."""
        return self._demands.copy()

    def demand(self, source: int, destination: int) -> float:
        """Offered traffic for one ordered pair (bits/s)."""
        if source == destination:
            return 0.0
        return float(self._demands[int(source), int(destination)])

    def set_demand(self, source: int, destination: int, value: float) -> None:
        """Set the offered traffic of one ordered pair."""
        if source == destination:
            raise ValueError("cannot set a self-demand")
        if value < 0:
            raise ValueError("demands must be non-negative")
        self._demands[int(source), int(destination)] = float(value)

    def total_demand(self) -> float:
        """Sum of all demands (bits/s)."""
        return float(self._demands.sum())

    def scale(self, factor: float) -> "TrafficMatrix":
        """Return a new matrix with every demand multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return TrafficMatrix(self._demands * factor)

    def pairs(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(source, destination, demand)`` for non-zero demands."""
        for source in range(self.num_nodes):
            for destination in range(self.num_nodes):
                value = self._demands[source, destination]
                if source != destination and value > 0:
                    yield source, destination, float(value)

    def nonzero_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs with strictly positive demand."""
        return [(s, d) for s, d, _ in self.pairs()]

    def as_vector(self, pair_order: List[Tuple[int, int]]) -> np.ndarray:
        """Demands arranged according to an explicit pair order (for models)."""
        pairs = np.asarray(pair_order, dtype=np.int64).reshape(-1, 2)
        # The diagonal is zero by construction, so self pairs read 0.0 too.
        return self._demands[pairs[:, 0], pairs[:, 1]]

    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        return {"num_nodes": self.num_nodes, "demands": self._demands.tolist()}

    @classmethod
    def from_dict(cls, payload: Dict) -> "TrafficMatrix":
        """Rebuild from :meth:`to_dict` output."""
        return cls(np.asarray(payload["demands"], dtype=np.float64))

    @classmethod
    def zeros(cls, num_nodes: int) -> "TrafficMatrix":
        """An all-zero matrix for ``num_nodes`` nodes."""
        if num_nodes < 2:
            raise ValueError("a traffic matrix needs at least 2 nodes")
        return cls(np.zeros((num_nodes, num_nodes)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        return np.array_equal(self._demands, other._demands)

    def __repr__(self) -> str:
        return (f"TrafficMatrix(nodes={self.num_nodes}, "
                f"total={self.total_demand():.3g} bps)")
