"""Compiled scan kernels vs the interpreted streaming scan, plus binary shards.

The compiled path (``scan_mode="compiled"``) replaces the interpreted
per-step autograd tape of the RNN scan with precompiled step plans and
raw-NumPy GRU/LSTM kernels: input projections hoisted to one BLAS call per
source per scan, gate buffers reused across steps, scatters run as
presorted ``np.add.reduceat``, and a closed-form backward that never builds
a Tensor graph.  This module measures what that buys on the reference
workload every scan benchmark uses — the 1104-path merged batch of two
GEANT2 scenarios — and holds the acceptance bar: **≥ 1.3x** train-step
samples/sec over the interpreted streaming scan at equal dtype.

It also measures the format-3 binary (npz) shard payload against the
format-2 gzipped-JSONL payload on a full sharded-store read pass — the
decode work a :class:`~repro.datasets.prefetch.BatchPrefetcher` producer
performs every streamed epoch.

Every row lands in ``.benchmarks/BENCH_throughput.json``.  The kernel row
also carries a **soft regression check**: when the committed baseline (the
repo-root ``BENCH_throughput.json``) already holds a
``scan_kernel_compiled_vs_stream`` row and this run's compiled samples/sec
drops more than 10% below it, the drop is printed loudly (host metadata
tells apples from oranges) but the run does not fail — absolute throughput
is host-dependent; only the compiled-vs-stream ratio is asserted.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time

import numpy as np
import pytest

from repro.datasets import (
    DatasetConfig,
    FeatureNormalizer,
    generate_dataset,
    save_dataset,
    tensorize_sample,
)
from repro.datasets.batching import merge_tensorized_samples
from repro.datasets.sharded import ShardedDatasetReader
from repro.models import ExtendedRouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
from repro.topology import geant2_topology

#: The committed baseline the soft regression check compares against.
COMMITTED_BENCH_JSON = pathlib.Path(__file__).resolve().parents[1] / "BENCH_throughput.json"

DTYPE = "float64"
SPEEDUP_BAR = 1.3
SOFT_REGRESSION_TOLERANCE = 0.10

RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json(write_bench_rows):
    yield
    write_bench_rows(RESULTS)


@pytest.fixture(scope="module")
def reference_batch():
    """The 1104-path merged batch (two GEANT2 scenarios) of the scan benches."""
    samples = generate_dataset(geant2_topology(),
                               DatasetConfig(num_samples=2, seed=7,
                                             small_queue_fraction=0.5))
    normalizer = FeatureNormalizer().fit(samples)
    merged = merge_tensorized_samples(
        [tensorize_sample(s, normalizer, dtype=DTYPE) for s in samples])
    assert merged.num_paths >= 1000
    return merged


def _best_step_seconds(merged, bench_scale,
                       repetitions: int = 5) -> dict:
    """Best full train-step (forward+backward+update) wall time per mode.

    The two modes are timed *interleaved* (stream, compiled, stream, ...)
    rather than in separate blocks: the asserted quantity is their ratio,
    and on busy/1-CPU hosts the background load drifts over seconds —
    interleaving makes both modes sample the same conditions so the drift
    cancels instead of landing entirely on one mode.
    """
    trainers = {}
    for mode in ("stream", "compiled"):
        model = ExtendedRouteNet(RouteNetConfig(
            link_state_dim=bench_scale["state_dim"],
            path_state_dim=bench_scale["state_dim"],
            node_state_dim=bench_scale["state_dim"],
            message_passing_iterations=bench_scale["iterations"],
            seed=41, dtype=DTYPE, scan_mode=mode))
        trainers[mode] = RouteNetTrainer(
            model, TrainerConfig(epochs=1, dtype=DTYPE, seed=41))
        trainers[mode].train_step(merged)  # warm index/plan/kernel caches
    best = {mode: np.inf for mode in trainers}
    for _ in range(repetitions):
        for mode, trainer in trainers.items():
            gc.collect()
            start = time.perf_counter()
            trainer.train_step(merged)
            best[mode] = min(best[mode], time.perf_counter() - start)
    return best


def test_compiled_kernel_speedup(reference_batch, bench_scale):
    """Tentpole acceptance: compiled step kernels must deliver ≥ 1.3x the
    interpreted streaming scan's train-step samples/sec on the 1104-path
    GEANT2 reference batch at equal dtype."""
    merged = reference_batch
    step_seconds = _best_step_seconds(merged, bench_scale)
    samples_per_sec = {mode: merged.num_merged_samples / step_seconds[mode]
                       for mode in step_seconds}
    speedup = samples_per_sec["compiled"] / samples_per_sec["stream"]

    baseline = None
    if COMMITTED_BENCH_JSON.exists():
        try:
            committed = json.loads(COMMITTED_BENCH_JSON.read_text())
            baseline = (committed.get("scan_kernel_compiled_vs_stream", {})
                        .get("samples_per_sec", {}).get("compiled"))
        except (json.JSONDecodeError, OSError):
            baseline = None

    RESULTS["scan_kernel_compiled_vs_stream"] = {
        "num_paths": int(merged.num_paths), "dtype": DTYPE,
        "state_dim": bench_scale["state_dim"],
        "message_passing_iterations": bench_scale["iterations"],
        "samples_per_sec": samples_per_sec,
        "step_seconds": step_seconds,
        "speedup": speedup}

    print(f"\ncompiled vs interpreted streaming scan at {merged.num_paths} "
          f"merged paths ({DTYPE})")
    for mode in ("stream", "compiled"):
        print(f"  {mode:8s}: {step_seconds[mode] * 1e3:7.1f} ms/step   "
              f"{samples_per_sec[mode]:7.2f} samples/s")
    print(f"  speedup : {speedup:.3f}x (bar ≥ {SPEEDUP_BAR})")
    if baseline is not None:
        drop = 1.0 - samples_per_sec["compiled"] / baseline
        if drop > SOFT_REGRESSION_TOLERANCE:
            # Soft check only: absolute throughput is host-dependent (see the
            # per-row host metadata); the drop is surfaced, not asserted.
            print(f"  NOTE: compiled throughput {samples_per_sec['compiled']:.2f} "
                  f"samples/s is {drop:.1%} below the committed baseline "
                  f"{baseline:.2f} samples/s (>10% soft-regression threshold)")
        else:
            print(f"  baseline: {baseline:.2f} samples/s committed "
                  f"({-drop:+.1%} this run)")

    assert speedup >= SPEEDUP_BAR


def test_binary_shard_read_throughput(tmp_path_factory, bench_scale):
    """Format-3 npz shards must decode a full reader pass faster than the
    format-2 gzipped-JSONL shards they replace (the per-epoch producer-side
    work of every streamed fit)."""
    samples = generate_dataset(geant2_topology(),
                               DatasetConfig(num_samples=16, seed=7,
                                             small_queue_fraction=0.5))
    root = tmp_path_factory.mktemp("payload-bench")
    stores = {payload: save_dataset(samples, str(root / payload), shards=4,
                                    shard_payload=payload)
              for payload in ("jsonl", "binary")}

    def read_speed(path: str, repetitions: int = 3) -> float:
        best = np.inf
        for _ in range(repetitions):
            reader = ShardedDatasetReader(path)
            start = time.perf_counter()
            count = sum(1 for _ in reader)
            best = min(best, time.perf_counter() - start)
            assert count == len(samples)
        return len(samples) / best

    speeds = {payload: read_speed(stores[payload]) for payload in stores}
    ratio = speeds["binary"] / speeds["jsonl"]
    RESULTS["shard_payload_read_throughput"] = {
        "num_samples": len(samples), "shards": 4, "topology": "GEANT2",
        "samples_per_sec": speeds, "binary_vs_jsonl": ratio}

    print(f"\nsharded-store read pass, {len(samples)} GEANT2 scenarios")
    for payload in ("jsonl", "binary"):
        print(f"  {payload:7s}: {speeds[payload]:8.2f} samples/s")
    print(f"  binary vs jsonl: {ratio:.2f}x")

    # Locally the gap is ~1.3-1.7x; the asserted floor absorbs CI noise.
    assert ratio >= 1.1
