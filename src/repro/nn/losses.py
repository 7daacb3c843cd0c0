"""Loss functions for regression targets (per-path delay / jitter)."""

from __future__ import annotations

from repro.nn.tensor import Tensor, as_tensor, where

__all__ = ["mse_loss", "mae_loss", "huber_loss", "mape_loss", "log_mse_loss", "LOSSES"]


def _validate(predictions: Tensor, targets: Tensor) -> None:
    if predictions.shape != targets.shape:
        raise ValueError(
            f"predictions shape {predictions.shape} does not match targets shape {targets.shape}"
        )


def mse_loss(predictions, targets) -> Tensor:
    """Mean squared error."""
    predictions, targets = as_tensor(predictions), as_tensor(targets)
    _validate(predictions, targets)
    return ((predictions - targets) ** 2).mean()


def mae_loss(predictions, targets) -> Tensor:
    """Mean absolute error."""
    predictions, targets = as_tensor(predictions), as_tensor(targets)
    _validate(predictions, targets)
    return (predictions - targets).abs().mean()


def huber_loss(predictions, targets, delta: float = 1.0) -> Tensor:
    """Huber loss: quadratic near zero, linear beyond ``delta``."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    predictions, targets = as_tensor(predictions), as_tensor(targets)
    _validate(predictions, targets)
    error = predictions - targets
    abs_error = error.abs()
    quadratic = 0.5 * (error ** 2)
    linear = delta * abs_error - 0.5 * delta ** 2
    return where(abs_error.data <= delta, quadratic, linear).mean()


#: The training losses by name: ``TrainerConfig.loss`` must be a key, and
#: the trainer's evaluation and every training gradient (in-process or in
#: a pool worker) look the function up here.
LOSSES = {"mse": mse_loss, "huber": huber_loss}


def mape_loss(predictions, targets, epsilon: float = 1e-8) -> Tensor:
    """Mean absolute percentage error (differentiable w.r.t. predictions)."""
    predictions, targets = as_tensor(predictions), as_tensor(targets)
    _validate(predictions, targets)
    return ((predictions - targets).abs() / (targets.abs() + epsilon)).mean()


def log_mse_loss(predictions, targets, epsilon: float = 1e-8) -> Tensor:
    """Mean squared error between ``log`` of predictions and targets.

    Useful when delays span orders of magnitude; both arguments must be
    positive (they are clipped at ``epsilon``).
    """
    predictions, targets = as_tensor(predictions), as_tensor(targets)
    _validate(predictions, targets)
    return ((predictions.clip(min_value=epsilon).log()
             - targets.clip(min_value=epsilon).log()) ** 2).mean()
