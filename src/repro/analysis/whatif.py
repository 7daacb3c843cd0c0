"""What-if analysis: querying a trained RouteNet model for new scenarios.

A trained model plus its normaliser form a *network model* in the paper's
sense: a function from (topology, routing, traffic) to per-path delay.
:class:`WhatIfAnalyzer` wraps that function with the conveniences an
operator (or an optimisation loop) needs: evaluating candidate routings or
traffic matrices, ranking alternatives and summarising the predicted
delays.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.normalization import FeatureNormalizer
from repro.datasets.sample import Sample
from repro.datasets.tensorize import tensorize_sample
from repro.nn.module import Module
from repro.routing.scheme import RoutingScheme
from repro.topology.graph import Topology
from repro.traffic.matrix import TrafficMatrix

__all__ = ["make_scenario_sample", "WhatIfAnalyzer", "ScenarioPrediction"]


def make_scenario_sample(topology: Topology, routing: RoutingScheme,
                         traffic: TrafficMatrix) -> Sample:
    """Wrap a scenario (no measurements yet) in a :class:`Sample`.

    The delay vector is a placeholder of zeros; it is only used to satisfy
    the sample schema and is never read during prediction.
    """
    return Sample(
        topology=topology,
        routing=routing,
        traffic=traffic,
        delays=np.zeros(routing.num_paths),
        metadata={"generator": "scenario-placeholder"},
    )


@dataclasses.dataclass
class ScenarioPrediction:
    """Per-path predicted delays (seconds) of one what-if scenario."""

    pair_order: List[Tuple[int, int]]
    values: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def worst_value(self) -> float:
        return float(self.values.max())

    def value(self, source: int, destination: int) -> float:
        """Prediction for one pair."""
        return float(self.values[self.pair_order.index((source, destination))])

    def worst_pairs(self, top_k: int = 5) -> List[Tuple[Tuple[int, int], float]]:
        """The ``top_k`` pairs with the highest predicted delay."""
        order = np.argsort(self.values)[::-1][:top_k]
        return [(self.pair_order[int(i)], float(self.values[int(i)])) for i in order]


class WhatIfAnalyzer:
    """Answer what-if questions with a trained RouteNet-family model.

    ``normalizer`` must be the fitted normaliser the model was trained
    with; every query is tensorised with it by
    :func:`~repro.datasets.tensorize.tensorize_sample`, and the model's
    output is denormalised into per-path delays.
    """

    def __init__(self, model: Module, normalizer: FeatureNormalizer) -> None:
        if not normalizer.fitted:
            raise ValueError("the normalizer must be fitted (use the training normaliser)")
        self.model = model
        self.normalizer = normalizer

    # ------------------------------------------------------------------ #
    def predict(self, topology: Topology, routing: RoutingScheme,
                traffic: TrafficMatrix) -> ScenarioPrediction:
        """Predict the delay of every path of a scenario."""
        sample = make_scenario_sample(topology, routing, traffic)
        normalised = self.model.predict(tensorize_sample(sample, self.normalizer))
        return ScenarioPrediction(pair_order=sample.pair_order,
                                  values=self.normalizer.denormalize("delay", normalised))

    def compare_routings(self, topology: Topology, traffic: TrafficMatrix,
                         candidates: Dict[str, RoutingScheme]
                         ) -> List[Dict[str, object]]:
        """Evaluate candidate routing schemes and rank them by mean predicted delay."""
        if not candidates:
            raise ValueError("no candidate routings given")
        rows = []
        for name, routing in candidates.items():
            prediction = self.predict(topology, routing, traffic)
            rows.append({
                "name": name,
                "mean": prediction.mean,
                "worst": prediction.worst_value,
                "prediction": prediction,
            })
        rows.sort(key=lambda row: row["mean"])
        return rows

    def traffic_sweep(self, topology: Topology, routing: RoutingScheme,
                      base_traffic: TrafficMatrix,
                      scale_factors: Sequence[float]) -> List[Dict[str, float]]:
        """Predict the delays while uniformly scaling the traffic matrix.

        Useful to locate the load level at which performance degrades — the
        classic capacity-planning question.
        """
        if not scale_factors:
            raise ValueError("scale_factors must not be empty")
        rows = []
        for factor in scale_factors:
            prediction = self.predict(topology, routing, base_traffic.scale(factor))
            rows.append({"scale": float(factor), "mean": prediction.mean,
                         "worst": prediction.worst_value})
        return rows

    def best_routing(self, topology: Topology, traffic: TrafficMatrix,
                     candidates: Dict[str, RoutingScheme]) -> str:
        """Name of the candidate routing with the lowest mean predicted delay."""
        return self.compare_routings(topology, traffic, candidates)[0]["name"]
