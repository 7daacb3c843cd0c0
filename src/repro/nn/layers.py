"""Feed-forward layers: dense layers and the multi-layer perceptron."""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.nn.initializers import glorot_uniform, zeros_init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor

__all__ = ["Dense", "Sequential", "MLP", "get_activation"]

def identity(x: Tensor) -> Tensor:
    """The linear / no-op activation.

    A named module-level function (rather than a lambda) so modules that
    store their resolved activation — and therefore whole models — stay
    picklable, which the multiprocess data-parallel trainer relies on to
    ship replicas to worker processes.
    """
    return x


_ACTIVATIONS: dict = {
    None: identity,
    "linear": identity,
    "relu": Tensor.relu,
}


def get_activation(name_or_fn) -> Callable[[Tensor], Tensor]:
    """Resolve an activation by name or pass a callable through unchanged."""
    if callable(name_or_fn):
        return name_or_fn
    if name_or_fn in _ACTIVATIONS:
        return _ACTIVATIONS[name_or_fn]
    raise ValueError(f"unknown activation '{name_or_fn}'; available: {sorted(k for k in _ACTIVATIONS if k)}")


class Dense(Module):
    """Fully connected layer ``y = activation(x W + b)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation=None,
        use_bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.activation = get_activation(activation)
        self.use_bias = use_bias
        self.weight = Parameter(glorot_uniform((in_features, out_features), rng=rng), name="weight")
        if use_bias:
            self.bias = Parameter(zeros_init((out_features,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense expected last dimension {self.in_features}, got {x.shape[-1]}"
            )
        out = x.matmul(self.weight)
        if self.use_bias:
            out = out + self.bias
        return self.activation(out)

    def __repr__(self) -> str:
        return f"Dense(in={self.in_features}, out={self.out_features})"


class Sequential(Module):
    """Apply a list of modules in order."""

    def __init__(self, layers: Iterable[Module]) -> None:
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(self.layers):
            self.register_module(f"layer{index}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class MLP(Sequential):
    """Multi-layer perceptron defined by a list of hidden sizes.

    This is the shape of RouteNet's readout function: a stack of dense layers
    with a chosen hidden activation and a (typically linear) output
    activation.
    """

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        out_features: int,
        hidden_activation="relu",
        output_activation=None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        sizes = [in_features] + list(hidden_sizes)
        layers = [
            Dense(sizes[i], sizes[i + 1], activation=hidden_activation, rng=rng)
            for i in range(len(sizes) - 1)
        ]
        layers.append(Dense(sizes[-1], out_features, activation=output_activation, rng=rng))
        super().__init__(layers)
        self.in_features = in_features
        self.out_features = out_features
