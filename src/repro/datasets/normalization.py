"""Feature and target normalisation fitted on a training set.

A fitted :class:`FeatureNormalizer` is what
:func:`repro.datasets.tensorize.tensorize_sample` needs to turn a scenario
into model input; it holds statistics only and keeps no tensorisations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.datasets.sample import Sample

__all__ = ["FeatureNormalizer"]


class FeatureNormalizer:
    """Z-score normalisation constants for the RouteNet input features.

    The normaliser is fitted once on the training samples and then applied
    to every sample (training and evaluation) so the model always sees
    features on comparable scales:

    * link capacities (bits/s),
    * node queue sizes (packets),
    * per-path traffic demands (bits/s),
    * per-path delays (the regression target), jitters and loss ratios.

    Jitter and loss statistics are only collected from samples that carry
    them; datasets without those measurements fall back to identity scaling
    for the missing fields.  The models train on delay alone, but every
    statistic is recorded, so stores and manifests keep one layout.
    """

    _FIELDS = ("capacity", "queue_size", "traffic", "delay", "jitter", "loss")

    def __init__(self) -> None:
        self.means: Dict[str, float] = {}
        self.stds: Dict[str, float] = {}
        self.fitted = False

    # ------------------------------------------------------------------ #
    def fit(self, samples: Iterable[Sample]) -> "FeatureNormalizer":
        """Estimate means and standard deviations from ``samples``."""
        collected: Dict[str, List[float]] = {name: [] for name in self._FIELDS}
        count = 0
        for sample in samples:
            count += 1
            collected["capacity"].extend(spec.capacity for spec in sample.topology.links())
            collected["queue_size"].extend(sample.topology.queue_sizes().values())
            collected["traffic"].extend(sample.traffic.as_vector(sample.pair_order))
            collected["delay"].extend(sample.delays)
            if sample.jitters is not None:
                collected["jitter"].extend(sample.jitters)
            if sample.losses is not None:
                collected["loss"].extend(sample.losses)
        if count == 0:
            raise ValueError("cannot fit a normalizer on an empty dataset")
        for name in self._FIELDS:
            values = collected[name]
            if not values:
                # Field absent from the dataset: identity scaling.
                self.means[name] = 0.0
                self.stds[name] = 1.0
                continue
            array = np.asarray(values, dtype=np.float64)
            self.means[name] = float(array.mean())
            std = float(array.std())
            self.stds[name] = std if std > 1e-12 else 1.0
        self.fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError("normalizer must be fitted before use")

    # ------------------------------------------------------------------ #
    def normalize(self, field: str, values: np.ndarray) -> np.ndarray:
        """Z-score values of one field."""
        self._require_fitted()
        if field not in self.means:
            raise KeyError(f"unknown field '{field}'")
        return (np.asarray(values, dtype=np.float64) - self.means[field]) / self.stds[field]

    def denormalize(self, field: str, values: np.ndarray) -> np.ndarray:
        """Invert :meth:`normalize`."""
        self._require_fitted()
        if field not in self.means:
            raise KeyError(f"unknown field '{field}'")
        return np.asarray(values, dtype=np.float64) * self.stds[field] + self.means[field]

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        self._require_fitted()
        return {"means": dict(self.means), "stds": dict(self.stds)}

    @classmethod
    def from_dict(cls, payload: Dict) -> "FeatureNormalizer":
        """Rebuild from :meth:`to_dict` output."""
        normalizer = cls()
        normalizer.means = {k: float(v) for k, v in payload["means"].items()}
        normalizer.stds = {k: float(v) for k, v in payload["stds"].items()}
        normalizer.fitted = True
        return normalizer
