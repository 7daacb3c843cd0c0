"""Shared configuration of the benchmark harness.

Every benchmark either regenerates one of the paper's experiments (Fig. 2's
error CDFs, the node-feature ablation, the baseline and simulator
comparisons, the inference-vs-simulation cost) or measures throughput rows
of ``.benchmarks/BENCH_throughput.json``; README's "Benchmarks" section
lists them.  Sizes are scaled down from the paper (400k training samples) so the whole
suite runs on a laptop CPU; set ``REPRO_BENCH_SCALE=full`` to use larger
sizes (several times slower) for tighter curves.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform

import numpy as np
import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Where a benchmark run writes its rows: gitignored, so running the suite
#: never rewrites the committed ``BENCH_*.json`` files at the repo root.
RESULTS_DIR = REPO_ROOT / ".benchmarks"

#: Scaled-down defaults (samples, epochs) used by the training benchmarks.
SMALL_SCALE = {
    "train_samples": 30,
    "eval_samples": 12,
    "epochs": 8,
    "state_dim": 12,
    "iterations": 3,
}

FULL_SCALE = {
    "train_samples": 80,
    "eval_samples": 30,
    "epochs": 15,
    "state_dim": 16,
    "iterations": 4,
}


@pytest.fixture(scope="session")
def bench_scale() -> dict:
    """Benchmark sizing knobs, switchable via the REPRO_BENCH_SCALE env var."""
    if os.environ.get("REPRO_BENCH_SCALE", "small").lower() == "full":
        return dict(FULL_SCALE)
    return dict(SMALL_SCALE)


@pytest.fixture(scope="session")
def host_metadata() -> dict:
    """Host facts stamped onto every benchmark row, so absolute samples/sec
    figures are interpretable across machines (and a regression vs the
    committed baseline can be discounted when the host changed)."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


@pytest.fixture(scope="session")
def bench_results_dir() -> pathlib.Path:
    """The directory this run's benchmark outputs go to (``.benchmarks/``)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def write_bench_rows(bench_results_dir, host_metadata):
    """``write(rows)`` merges a module's rows into
    ``.benchmarks/BENCH_throughput.json``, stamping every row but ``unit``
    with the host metadata.

    Read-update-write rather than overwrite, so a partial run (``-k``
    subset, or an aborted ``-x`` session) refreshes only the rows it
    actually measured and the rest of the record survives.
    """
    path = bench_results_dir / "BENCH_throughput.json"

    def write(rows: dict) -> None:
        for key, row in rows.items():
            if isinstance(row, dict) and key != "unit":
                row.setdefault("host", host_metadata)
        merged: dict = {}
        if path.exists():
            try:
                merged = json.loads(path.read_text())
            except (json.JSONDecodeError, OSError):
                merged = {}
        merged.update(rows)
        path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")

    return write
