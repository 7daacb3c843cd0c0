"""Evaluation metrics operating on plain NumPy arrays (no gradients).

The central quantity of the paper's evaluation (Fig. 2) is the *relative
error* of the delay prediction for every source-destination path, whose
cumulative distribution function is then plotted.  :func:`relative_errors`
computes it; :class:`repro.evaluation.cdf.ErrorCDF` tabulates its CDF.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "relative_errors",
    "absolute_relative_errors",
    "mean_relative_error",
    "mean_absolute_percentage_error",
    "root_mean_squared_error",
    "pearson_correlation",
]


def _to_arrays(predictions, targets) -> Tuple[np.ndarray, np.ndarray]:
    predictions = np.asarray(getattr(predictions, "data", predictions), dtype=np.float64).ravel()
    targets = np.asarray(getattr(targets, "data", targets), dtype=np.float64).ravel()
    if predictions.shape != targets.shape:
        raise ValueError("predictions and targets must have the same number of elements")
    if predictions.size == 0:
        raise ValueError("metrics require at least one element")
    return predictions, targets


def relative_errors(predictions, targets, epsilon: float = 1e-12) -> np.ndarray:
    """Signed relative error ``(prediction - target) / target`` per element."""
    predictions, targets = _to_arrays(predictions, targets)
    return (predictions - targets) / np.maximum(np.abs(targets), epsilon)


def absolute_relative_errors(predictions, targets, epsilon: float = 1e-12) -> np.ndarray:
    """Absolute relative error per element."""
    return np.abs(relative_errors(predictions, targets, epsilon))


def mean_relative_error(predictions, targets) -> float:
    """Mean absolute relative error (a single-number summary of Fig. 2)."""
    return float(absolute_relative_errors(predictions, targets).mean())


def mean_absolute_percentage_error(predictions, targets) -> float:
    """MAPE in percent."""
    return 100.0 * mean_relative_error(predictions, targets)


def root_mean_squared_error(predictions, targets) -> float:
    """Root mean squared error."""
    predictions, targets = _to_arrays(predictions, targets)
    return float(np.sqrt(((predictions - targets) ** 2).mean()))


def pearson_correlation(predictions, targets) -> float:
    """Pearson correlation coefficient between predictions and targets."""
    predictions, targets = _to_arrays(predictions, targets)
    if predictions.std() == 0.0 or targets.std() == 0.0:
        return 0.0
    return float(np.corrcoef(predictions, targets)[0, 1])
