"""Weight initialisation schemes used by the layers in :mod:`repro.nn`."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.tensor import DTypeLike, resolve_dtype

__all__ = ["glorot_uniform", "orthogonal", "zeros_init"]


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[:-1]))
    fan_out = int(shape[-1])
    return fan_in, fan_out


def _rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


def _cast(values: np.ndarray, dtype: DTypeLike) -> np.ndarray:
    """Cast sampled values to the requested (or default) dtype, C-contiguous.

    Slicing tricks (e.g. the transpose in :func:`orthogonal`) can leave
    F-ordered arrays behind; parameters are stored C-contiguous so matmuls
    and flat views behave predictably.
    """
    return np.ascontiguousarray(values, dtype=resolve_dtype(dtype))


def glorot_uniform(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None,
                   dtype: DTypeLike = None) -> np.ndarray:
    """Glorot/Xavier uniform initialisation (good default for tanh/sigmoid nets)."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return _cast(_rng(rng).uniform(-limit, limit, size=shape), dtype)


def orthogonal(shape: Tuple[int, ...], gain: float = 1.0,
               rng: Optional[np.random.Generator] = None,
               dtype: DTypeLike = None) -> np.ndarray:
    """Orthogonal initialisation (recommended for recurrent weight matrices)."""
    if len(shape) < 2:
        raise ValueError("orthogonal initialisation requires at least 2 dimensions")
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    flat = _rng(rng).normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    q = q[:rows, :cols] if rows >= cols else q.T[:rows, :cols]
    return _cast(gain * q.reshape(shape), dtype)


def zeros_init(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None,
               dtype: DTypeLike = None) -> np.ndarray:
    """All-zeros initialisation (used for biases)."""
    return np.zeros(shape, dtype=resolve_dtype(dtype))
