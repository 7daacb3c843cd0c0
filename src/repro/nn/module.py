"""Base classes for trainable components: :class:`Parameter` and :class:`Module`.

A :class:`Module` owns named :class:`Parameter` objects and child modules, and
exposes them through :meth:`Module.parameters` / :meth:`Module.named_parameters`
so optimisers and serialisation helpers can treat any model uniformly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import DTypeLike, Tensor, resolve_dtype

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by :class:`Module`.

    Parameters are always stored in a concrete float precision: ``dtype``
    when given, otherwise the module-level default (see
    :func:`repro.nn.tensor.set_default_dtype`) active at construction time —
    models pin their precision by building parameters inside a
    :func:`repro.nn.tensor.default_dtype` block.
    """

    def __init__(self, data, name: Optional[str] = None, dtype: DTypeLike = None) -> None:
        super().__init__(np.asarray(data, dtype=resolve_dtype(dtype)),
                         requires_grad=True, name=name)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are registered automatically.  Subclasses implement
    :meth:`forward`, and instances are callable.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Attribute registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module (used for module lists)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # Parameter access
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module and its children."""
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar trainable values."""
        return int(sum(p.size for p in self.parameters()))

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # Flat parameter / gradient vectors
    # ------------------------------------------------------------------ #
    def parameters_vector(self) -> np.ndarray:
        """Concatenate every parameter into one flat 1-D array (a copy).

        The layout is the depth-first :meth:`named_parameters` order, which
        is deterministic for a given architecture — the same order
        :meth:`load_parameters_vector`, :meth:`gradients_vector` and
        :meth:`load_gradients_vector` use, so a vector packed from one
        replica of a model can be unpacked into another.  This is the wire
        format of the data-parallel trainer (parameter broadcast / gradient
        return, see :mod:`repro.nn.parallel`).
        """
        return np.concatenate([p.data.reshape(-1) for p in self.parameters()])

    def load_parameters_vector(self, vector: np.ndarray) -> None:
        """Unpack a flat vector from :meth:`parameters_vector` into the parameters."""
        params = self.parameters()
        vector = np.asarray(vector)
        expected = sum(p.size for p in params)
        if vector.ndim != 1 or vector.size != expected:
            raise ValueError(
                f"expected a flat vector of {expected} values, got shape {vector.shape}")
        offset = 0
        for p in params:
            chunk = vector[offset:offset + p.size]
            p.data = np.asarray(chunk, dtype=p.data.dtype).reshape(p.data.shape).copy()
            offset += p.size

    def gradients_vector(self) -> np.ndarray:
        """Concatenate every parameter's gradient into one flat 1-D array.

        Parameters whose gradient is ``None`` (not touched by the last
        backward pass) contribute zeros, so the vector always has the same
        layout as :meth:`parameters_vector`.
        """
        chunks = []
        for p in self.parameters():
            if p.grad is None:
                chunks.append(np.zeros(p.size, dtype=p.data.dtype))
            else:
                chunks.append(np.asarray(p.grad).reshape(-1))
        return np.concatenate(chunks)

    def load_gradients_vector(self, vector: np.ndarray) -> None:
        """Set every parameter's ``grad`` from a flat vector (layout as above)."""
        params = self.parameters()
        vector = np.asarray(vector)
        expected = sum(p.size for p in params)
        if vector.ndim != 1 or vector.size != expected:
            raise ValueError(
                f"expected a flat vector of {expected} values, got shape {vector.shape}")
        offset = 0
        for p in params:
            chunk = vector[offset:offset + p.size]
            p.grad = np.asarray(chunk, dtype=p.data.dtype).reshape(p.data.shape).copy()
            offset += p.size

    # ------------------------------------------------------------------ #
    # State dict (serialisation)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter keyed by its qualified name."""
        return {name: np.array(param.data, copy=True) for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values from a dictionary produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if name not in state:
                continue
            # Checkpoints may have been written at either precision; loading
            # casts to the parameter's own dtype so the model keeps the
            # precision it was constructed with.
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_repr = ", ".join(self._modules.keys())
        return f"{self.__class__.__name__}({child_repr})"
