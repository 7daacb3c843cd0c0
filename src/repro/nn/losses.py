"""The training loss: mean squared error over per-path targets."""

from __future__ import annotations

from repro.nn.tensor import Tensor, as_tensor

__all__ = ["mse_loss"]


def mse_loss(predictions, targets) -> Tensor:
    """Mean squared error."""
    predictions, targets = as_tensor(predictions), as_tensor(targets)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"predictions shape {predictions.shape} does not match targets shape {targets.shape}"
        )
    return ((predictions - targets) ** 2).mean()
