"""Scenario sweeps: generate whole datasets of samples for a topology.

Mirrors the structure of the paper's datasets: for a chosen topology the
generator draws, per sample, a random assignment of queue sizes (standard
vs 1-packet devices), a routing scheme (shortest path or a randomised
k-shortest-path variation) and a traffic matrix scaled to a target peak
utilisation, then asks a ground-truth backend (analytic or packet-level
simulation) for the per-path delays.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.datasets.analytic import AnalyticGroundTruth
from repro.datasets.sample import Sample
from repro.datasets.simulation import SimulationGroundTruth
from repro.routing.scheme import RoutingScheme
from repro.routing.shortest_path import random_variation_routing, shortest_path_routing
from repro.topology.generators import assign_queue_sizes
from repro.topology.graph import DEFAULT_QUEUE_SIZE, SMALL_QUEUE_SIZE, Topology
from repro.traffic.generators import gravity_traffic, scaled_to_utilization, uniform_traffic

__all__ = ["DatasetConfig", "DatasetGenerator", "generate_dataset"]


@dataclasses.dataclass
class DatasetConfig:
    """Knobs of the scenario sweep.

    Attributes
    ----------
    num_samples:
        Number of samples to generate.
    small_queue_fraction:
        Fraction of nodes given 1-packet buffers in each sample (the paper's
        mixed-queue-size scenario).  Set to 0 to reproduce the original
        RouteNet setting where all devices are identical.
    utilization_range:
        Per-sample peak link utilisation is drawn uniformly from this range.
    traffic_model:
        ``"uniform"`` or ``"gravity"``.
    routing_variation:
        When > 1, each sample draws one of the k shortest paths per pair at
        random (k = ``routing_variation``); 1 means plain shortest path.
    backend:
        ``"analytic"`` (fast, default) or ``"simulation"`` (packet-level).
    seed:
        Seed of the sweep; every sample derives its own generator from it.
    default_queue_size / small_queue_size:
        Queue sizes (packets) of standard and constrained devices.
    simulation_duration:
        Measurement window when ``backend="simulation"``.
    """

    num_samples: int = 100
    small_queue_fraction: float = 0.5
    utilization_range: Sequence[float] = (0.3, 0.85)
    traffic_model: str = "uniform"
    routing_variation: int = 1
    backend: str = "analytic"
    seed: int = 0
    default_queue_size: int = DEFAULT_QUEUE_SIZE
    small_queue_size: int = SMALL_QUEUE_SIZE
    simulation_duration: float = 2.0
    noise_std: float = 0.03
    mean_packet_size_bits: float = 8000.0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError("num_samples must be positive")
        if not 0.0 <= self.small_queue_fraction <= 1.0:
            raise ValueError("small_queue_fraction must be in [0, 1]")
        low, high = self.utilization_range
        if not 0.0 < low <= high:
            raise ValueError("utilization_range must satisfy 0 < low <= high")
        if self.traffic_model not in ("uniform", "gravity"):
            raise ValueError(f"unknown traffic model '{self.traffic_model}'")
        if self.routing_variation < 1:
            raise ValueError("routing_variation must be at least 1")
        if self.backend not in ("analytic", "simulation"):
            raise ValueError(f"unknown backend '{self.backend}'")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be non-negative, got {self.noise_std}")
        if self.simulation_duration <= 0:
            raise ValueError(
                f"simulation_duration must be positive, got {self.simulation_duration}")
        if self.mean_packet_size_bits <= 0:
            raise ValueError(
                f"mean_packet_size_bits must be positive, got {self.mean_packet_size_bits}")
        if self.default_queue_size < 1:
            raise ValueError(
                f"default_queue_size must be at least 1 packet, got {self.default_queue_size}")
        if self.small_queue_size < 1:
            raise ValueError(
                f"small_queue_size must be at least 1 packet, got {self.small_queue_size}")


class DatasetGenerator:
    """Generates datasets of :class:`Sample` objects for one base topology.

    Every sample copies the base topology's links and only redraws queue
    sizes, so with ``routing_variation=1`` the hop-count shortest paths are
    the same for every sample: they are computed once, here, and each
    sample's :class:`RoutingScheme` is built (and validated) from them
    against its own topology.
    """

    def __init__(self, base_topology: Topology, config: Optional[DatasetConfig] = None) -> None:
        self.base_topology = base_topology
        self.config = config if config is not None else DatasetConfig()
        self._shortest_paths = (
            dict(shortest_path_routing(base_topology).items())
            if self.config.routing_variation == 1 else None)
        if self.config.backend == "analytic":
            self._ground_truth = AnalyticGroundTruth(
                mean_packet_size_bits=self.config.mean_packet_size_bits,
                noise_std=self.config.noise_std)
        else:
            self._ground_truth = SimulationGroundTruth(
                duration=self.config.simulation_duration,
                mean_packet_size_bits=self.config.mean_packet_size_bits)

    # ------------------------------------------------------------------ #
    def generate(self) -> List[Sample]:
        """Generate ``config.num_samples`` samples from one RNG stream
        seeded with ``config.seed``."""
        rng = np.random.default_rng(self.config.seed)
        return [self.generate_one(rng) for _ in range(self.config.num_samples)]

    def generate_one(self, rng: np.random.Generator) -> Sample:
        """Generate a single sample using the provided random generator."""
        config = self.config
        topology = assign_queue_sizes(
            self.base_topology,
            config.small_queue_fraction,
            rng=rng,
            default_queue_size=config.default_queue_size,
            small_queue_size=config.small_queue_size,
        )
        if config.routing_variation > 1:
            routing = random_variation_routing(topology, k=config.routing_variation, rng=rng)
        else:
            routing = RoutingScheme(topology, self._shortest_paths)

        if config.traffic_model == "gravity":
            traffic = gravity_traffic(topology.num_nodes, total_traffic=1.0, rng=rng)
        else:
            traffic = uniform_traffic(topology.num_nodes, 0.5, 1.5, rng=rng)
        target_utilization = float(rng.uniform(*config.utilization_range))
        traffic = scaled_to_utilization(traffic, routing, target_utilization)

        sample = self._ground_truth.generate(topology, routing, traffic, rng=rng)
        sample.metadata.update({
            "target_utilization": target_utilization,
            "small_queue_fraction": config.small_queue_fraction,
            "topology_name": topology.name,
        })
        return sample


def generate_dataset(base_topology: Topology,
                     config: Optional[DatasetConfig] = None) -> List[Sample]:
    """Generate a list of samples with :class:`DatasetGenerator`.

    The samples draw from one RNG stream seeded with ``config.seed``.  The
    dataset factory (:func:`repro.datasets.factory.run_job`, behind the
    CLI's ``generate``) seeds every work unit on its own instead, so the
    two give different samples for the same seed.
    """
    return DatasetGenerator(base_topology, config).generate()
