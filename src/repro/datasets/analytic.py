"""Fast analytic ground-truth generator (the volume substitute for OMNeT++).

The paper trains on 400,000 simulated GEANT2 samples — far more than a
packet-level simulator can produce inside this reproduction.  This module
provides a fast surrogate: per-path delays are computed with a fixed-point
finite-buffer (M/M/1/K) queueing-network evaluation, then perturbed with
log-normal measurement noise that mimics the finite measurement window of a
real simulation.

The crucial property preserved from the paper's setting is that the delay of
a path depends on the *queue sizes of the nodes it traverses*: small buffers
bound queueing delay (and raise loss), large buffers allow queues to build
up.  The original RouteNet cannot see this node feature, so its predictions
carry irreducible error on mixed-queue scenarios; the extended model can —
which is exactly the effect Fig. 2 measures.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.queueing import MM1KModel
from repro.datasets.sample import Sample
from repro.routing.scheme import RoutingScheme
from repro.routing.tables import path_sums
from repro.topology.graph import Topology
from repro.traffic.matrix import TrafficMatrix

__all__ = ["AnalyticGroundTruth"]


class AnalyticGroundTruth:
    """Generate :class:`Sample` objects from the analytic queueing network.

    Parameters
    ----------
    mean_packet_size_bits:
        Average packet size used to convert traffic (bits/s) into packets/s.
    noise_std:
        Standard deviation of the multiplicative log-normal measurement
        noise applied to every per-path delay (0 disables noise).
    fixed_point_iterations:
        Iterations of the loss-thinning fixed point (more = better accuracy
        at high load).
    """

    def __init__(self, mean_packet_size_bits: float = 8000.0, noise_std: float = 0.03,
                 fixed_point_iterations: int = 10) -> None:
        if noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        self.mean_packet_size_bits = mean_packet_size_bits
        self.noise_std = noise_std
        self._model = MM1KModel(mean_packet_size_bits=mean_packet_size_bits,
                                fixed_point_iterations=fixed_point_iterations)

    def generate(self, topology: Topology, routing: RoutingScheme, traffic: TrafficMatrix,
                 rng: Optional[np.random.Generator] = None) -> Sample:
        """Produce one sample for the given scenario."""
        generator = rng if rng is not None else np.random.default_rng()
        prediction = self._model.predict(topology, routing, traffic)
        delays = prediction.delays.copy()
        if not np.all(np.isfinite(delays)):
            raise ValueError("analytic model produced non-finite delays; "
                             "reduce the offered load")
        if self.noise_std > 0:
            noise = generator.lognormal(mean=0.0, sigma=self.noise_std, size=delays.shape)
            delays = delays * noise
        # Jitter proxy: queueing variability grows with the queueing part of the
        # delay; use half the queueing delay as a crude but monotone surrogate.
        service_floor = path_sums(routing, [
            self.mean_packet_size_bits / spec.capacity + spec.propagation_delay
            for spec in topology.links()
        ])
        jitters = np.maximum(delays - service_floor, 0.0) * 0.5
        return Sample(
            topology=topology,
            routing=routing,
            traffic=traffic,
            delays=delays,
            jitters=jitters,
            losses=prediction.loss_ratios.copy(),
            metadata={
                "generator": "analytic-mm1k",
                "noise_std": self.noise_std,
                "mean_packet_size_bits": self.mean_packet_size_bits,
            },
        )
