"""The Adam optimiser and global-norm gradient clipping."""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Adam", "clip_gradients_by_norm"]


def clip_gradients_by_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm does not exceed ``max_norm``.

    Returns the norm before clipping (useful for logging exploding gradients).
    """
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in params:
            p.grad = p.grad * scale
    return total


class Adam:
    """Adam optimiser (Kingma & Ba, 2015) with bias correction and a
    constant learning rate."""

    #: Per-parameter moment buffers, stored as ``_<name>`` lists.
    BUFFERS = ("first_moment", "second_moment")

    def __init__(self, parameters: Iterable[Parameter], learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.learning_rate = float(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self._first_moment = [np.zeros_like(p.data) for p in self.parameters]
        self._second_moment = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        lr = self.learning_rate
        for index, param in enumerate(self.parameters):
            grad = param.grad
            if grad is None:
                continue
            self._first_moment[index] = self.beta1 * self._first_moment[index] + (1 - self.beta1) * grad
            self._second_moment[index] = (
                self.beta2 * self._second_moment[index] + (1 - self.beta2) * grad ** 2
            )
            first_hat = self._first_moment[index] / (1 - self.beta1 ** self.step_count)
            second_hat = self._second_moment[index] / (1 - self.beta2 ** self.step_count)
            param.data = param.data - lr * first_hat / (np.sqrt(second_hat) + self.epsilon)

    def state_dict(self) -> Dict[str, object]:
        """Return the full optimiser state: step count plus moment buffers.

        Every buffer is copied, so mutating the returned dictionary cannot
        corrupt the optimiser.
        """
        state: Dict[str, object] = {"step_count": self.step_count}
        for name in self.BUFFERS:
            state[name] = [np.array(buffer, copy=True)
                           for buffer in getattr(self, f"_{name}")]
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore state from :meth:`state_dict` output.

        Moment buffers are shape-checked against the current parameters —
        loading the state of an optimiser built over a different model (or a
        truncated legacy state that only carried ``step_count``) raises
        instead of silently resuming with zeroed moments, which would make
        the bias correction ``1/(1 - beta**step_count)`` wrong for every
        freshly zeroed buffer.
        """
        self.step_count = int(state.get("step_count", 0))
        for name in self.BUFFERS:
            if name not in state:
                raise KeyError(
                    f"optimizer state is missing the '{name}' buffers; "
                    "it was saved by an incompatible (or pre-fix) version")
            buffers = list(state[name])
            if len(buffers) != len(self.parameters):
                raise ValueError(
                    f"optimizer state has {len(buffers)} '{name}' buffers for "
                    f"{len(self.parameters)} parameters")
            restored = []
            for buffer, param in zip(buffers, self.parameters):
                array = np.asarray(buffer)
                if array.shape != param.data.shape:
                    raise ValueError(
                        f"'{name}' buffer shape {array.shape} does not match "
                        f"parameter shape {param.data.shape}")
                restored.append(array.astype(param.data.dtype, copy=True))
            setattr(self, f"_{name}", restored)
