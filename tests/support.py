"""Helpers shared by test modules (importable, unlike conftest.py).

Kept separate from ``conftest.py`` so test modules can import these without
re-importing the conftest under a second module name (pytest loads
``conftest.py`` as a top-level module, not as ``tests.conftest``).
"""

from __future__ import annotations

import contextlib
import hashlib
import pickle
import warnings

import numpy as np
import pytest

import repro.models.trainer as trainer_module
from repro.nn.parallel import _compute_gradient
from repro.nn.tensor import get_default_dtype

__all__ = ["float_tolerance", "in_process_groups", "labels_digest", "replica_gradients"]


def labels_digest(samples) -> str:
    """SHA-256 over each sample's node paths and delay, jitter and loss bytes."""
    digest = hashlib.sha256()
    for sample in samples:
        for pair, path in sample.routing.items():
            digest.update(repr((pair, path)).encode())
        for vector in (sample.delays, sample.jitters, sample.losses):
            digest.update(vector.tobytes())
    return digest.hexdigest()


def float_tolerance(float64_tol: float = 1e-9, float32_tol: float = 1e-4) -> float:
    """An absolute/relative tolerance matched to the active default dtype.

    Float32 runs accumulate ~1e-7 relative rounding per op and reorderings
    (merged batches, permuted graphs) expose it; 1e-4 keeps those checks
    meaningful while staying orders of magnitude below real regressions.
    """
    return float64_tol if np.dtype(get_default_dtype()) == np.float64 else float32_tol


def replica_gradients(model, flat_params, batches) -> list:
    """Each batch's ``(flat_gradient, loss, num_paths)`` computed in this
    process by the gradient workers' kernel, on a pickled replica of
    ``model`` holding ``flat_params``: the reference a
    :class:`~repro.nn.parallel.GradientWorkerPool` group must equal."""
    replica = pickle.loads(pickle.dumps(model))
    replica.load_parameters_vector(flat_params)
    return [_compute_gradient(replica, batch) for batch in batches]


@contextlib.contextmanager
def in_process_groups():
    """Inside the block, ``fit`` computes every data-parallel group in its
    own process: the gradient pool refuses to start, so ``fit`` takes its
    fallback, the reference the pool's trajectory must equal bit for bit.
    The fallback's warning is expected here and silenced."""
    def refuse(*args, **kwargs):
        raise RuntimeError("gradient pool refused for an in-process run")

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(trainer_module, "make_gradient_executor", refuse)
        warnings.filterwarnings("ignore", "gradient worker pool failed to start",
                                RuntimeWarning)
        yield
