"""Saving and loading model parameters as ``.npz`` archives."""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Optional

import numpy as np

from repro.nn.module import Module

__all__ = ["load_parameters", "save_checkpoint", "read_checkpoint_metadata"]


def _replace_all(writers: Dict[str, Callable[[str], None]]) -> None:
    """Write every file under a temporary name, then rename each into place.

    ``writers`` maps each destination path to a function writing that file
    at the path it is given.  A writer that raises leaves every previous
    file untouched and removes the temporaries, so a save that fails
    partway never leaves a truncated archive where a good one was.
    """
    temporaries: Dict[str, str] = {}
    try:
        for path, write in writers.items():
            # Keeping the extension stops np.savez_compressed from appending
            # a second ".npz" to the temporary name.
            temporaries[path] = path + ".tmp" + os.path.splitext(path)[1]
            write(temporaries[path])
    except BaseException:
        for temporary in temporaries.values():
            if os.path.exists(temporary):
                os.remove(temporary)
        raise
    for path, temporary in temporaries.items():
        os.replace(temporary, path)


def load_parameters(module: Module, path: str, strict: bool = True) -> Module:
    """Load parameters saved with :func:`save_checkpoint` into ``module``."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    if not os.path.exists(path):
        raise FileNotFoundError(f"no parameter file at '{path}'")
    with np.load(path) as archive:
        state: Dict[str, np.ndarray] = {key: archive[key] for key in archive.files}
    module.load_state_dict(state, strict=strict)
    return module


def save_checkpoint(module: Module, path: str, metadata: Optional[dict] = None) -> str:
    """Save parameters plus, given ``metadata``, a JSON sidecar of it.

    Both files are written in full under temporary names before either is
    renamed into place, so a save that fails partway leaves the previous
    weights and sidecar in place, loadable and matching.  Returns the
    ``.npz`` path written.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    state = module.state_dict()
    # ``/`` is not a legal npz key separator on all platforms; keep dots.
    writers = {path: lambda temporary: np.savez_compressed(temporary, **state)}
    if metadata is not None:
        def write_sidecar(temporary: str) -> None:
            with open(temporary, "w", encoding="utf-8") as handle:
                json.dump(metadata, handle, indent=2, sort_keys=True)

        writers[path[: -len(".npz")] + ".json"] = write_sidecar
    _replace_all(writers)
    return path


def read_checkpoint_metadata(path: str) -> dict:
    """Read a checkpoint's JSON metadata sidecar without touching weights.

    Useful to recover construction settings (e.g. the training dtype)
    before building the module the weights will be loaded into.  Returns
    an empty dictionary if no sidecar exists.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    sidecar = path[: -len(".npz")] + ".json"
    if os.path.exists(sidecar):
        with open(sidecar, "r", encoding="utf-8") as handle:
            return json.load(handle)
    return {}
