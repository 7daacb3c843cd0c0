"""Out-of-core training throughput: streamed epochs vs the in-memory path.

One acceptance bar from the sharded-dataset / prefetch PR, measured on the
1104-path large-merged-graph regime (GEANT2 scenarios at batch_size 2) and
recorded in ``.benchmarks/BENCH_throughput.json``:

* ``streaming_vs_inmemory`` — training straight from a sharded store
  through the :class:`~repro.datasets.prefetch.BatchPrefetcher` (small
  bucketing window, prefetch_depth 1) must hold peak tracemalloc to
  **≤ 0.5x** the in-memory path — which tensorises and pre-merges the whole
  dataset — while keeping **≥ 0.8x** its samples/sec.  (The speed bar was
  0.9 when the interpreted streaming scan was the default; the compiled
  scan kernels then cut the model-compute denominator ~1.7x, so the fixed
  producer-side decode/tensorise/merge work is now a larger *fraction*
  even though both arms got absolutely faster — on a 1-CPU host, where the
  producer thread cannot overlap with compute at all, the measured ratio
  sits around 0.85-0.9.)  Speed is measured
  on untracked runs (tracemalloc adds a large, GIL-contended overhead to
  the prefetch thread that would distort the comparison), and **every
  measured fit runs in a freshly spawned subprocess**: the two arms have
  different allocation patterns (main-thread-only vs producer-thread), and
  heap/arena state left behind by earlier tests in the same process was
  observed to swing the ratio by ±10% — far more than the ~3-5% pipeline
  overhead being measured.  A pristine interpreter per fit makes the
  comparison order-independent.

The untracked fits run in ``SPEED_PAIRS`` back-to-back pairs, alternating
which arm goes first, and the asserted speed ratio is the median of the
pairs' ratios: the two fits of a pair see the same host conditions, and
the median drops a pair that a load spike split.  Each arm's best fit (the
measurement of ``test_binary_shard_read_throughput``) is no estimate here.
On a 2-CPU host the in-memory arm, whose BLAS calls can spread over an idle
second CPU, has fast outliers (26-30 samples/s against a typical 21) that
the streamed arm, whose producer thread needs that CPU, never shows (at
most 21-25), so best-of compared one arm's luckiest fit with the other's
typical ones and read 0.70-0.75 where the paired medians of the same fits
read 0.79-0.89.  The bar is marginal on such a host all the same.
"""

from __future__ import annotations

import multiprocessing as mp
import statistics
import time
import tracemalloc

import pytest

from repro.datasets import (
    DatasetConfig,
    FeatureNormalizer,
    generate_dataset,
    save_dataset,
)
from repro.models import ExtendedRouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
from repro.topology import geant2_topology

NUM_SAMPLES = 96        # streamed dataset size (96 scenarios ≈ 53k paths);
                        # long-enough fits that scheduler noise averages out
BATCH_SIZE = 2          # 2 GEANT2 scenarios -> 1104-path merged batches
DTYPE = "float32"
STATE_DIM = 20          # model compute heavy enough that the per-epoch
                        # shard re-parse is a small fraction of a fit
SPEED_PAIRS = 5         # untracked fit pairs, alternating which arm goes first

RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json(write_bench_rows):
    yield
    write_bench_rows(RESULTS)


@pytest.fixture(scope="module")
def large_graph_samples():
    return generate_dataset(geant2_topology(),
                            DatasetConfig(num_samples=NUM_SAMPLES, seed=7,
                                          small_queue_fraction=0.5))


@pytest.fixture(scope="module")
def fitted_normalizer(large_graph_samples):
    return FeatureNormalizer().fit(large_graph_samples)


@pytest.fixture(scope="module")
def sharded_store(large_graph_samples, fitted_normalizer, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bench-dataset") / "store")
    return save_dataset(large_graph_samples, path, normalizer=fitted_normalizer,
                        shards=4)


def _make_trainer(bench_scale, fitted_normalizer, **config):
    model = ExtendedRouteNet(RouteNetConfig(
        link_state_dim=STATE_DIM,
        path_state_dim=STATE_DIM,
        node_state_dim=STATE_DIM,
        message_passing_iterations=bench_scale["iterations"],
        seed=41, dtype=DTYPE))
    defaults = dict(epochs=1, batch_size=BATCH_SIZE, dtype=DTYPE, seed=41)
    defaults.update(config)
    return RouteNetTrainer(
        model, TrainerConfig(**defaults),
        normalizer=FeatureNormalizer.from_dict(fitted_normalizer.to_dict()))


def _isolated_fit(conn, store: str, iterations: int, streamed: bool,
                  tracked: bool, streaming_config: dict) -> None:
    """One measured fit in a pristine interpreter (spawned subprocess).

    Both arms read their data from the sharded store on disk — the
    in-memory arm materialises it with ``load_dataset`` (untimed, like a
    dataset already resident before training), the streamed arm hands the
    path to ``fit``.  Sends ``(samples_per_sec, peak_bytes,
    peak_live_batches)`` back through ``conn``.
    """
    from repro.datasets import load_dataset
    from repro.datasets.sharded import ShardedDatasetReader

    reader = ShardedDatasetReader(store)
    normalizer = reader.normalizer
    bench_scale = {"iterations": iterations}
    trainer = _make_trainer(bench_scale, normalizer,
                            **(streaming_config if streamed else {}))
    samples = None
    if not streamed:
        samples, _, _ = load_dataset(store)
    if tracked:
        tracemalloc.start()
    start = time.perf_counter()
    if streamed:
        trainer.fit(dataset_path=store)
    else:
        trainer.fit(samples)
    elapsed = time.perf_counter() - start
    peak = 0
    if tracked:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    conn.send((NUM_SAMPLES / elapsed, peak,
               trainer.history.peak_live_batches[-1]))
    conn.close()


def test_streaming_vs_inmemory(fitted_normalizer, sharded_store, bench_scale):
    """A streamed epoch over the sharded store must cut peak tracemalloc to
    ≤ 0.5x the in-memory fit at ≥ 0.8x its samples/sec on the 1104-path
    merged-batch dataset (see the module docstring for the bar history and
    the paired measurement)."""
    streaming_config = dict(stream_window=2, prefetch_depth=1)
    context = mp.get_context("spawn")

    def run_fit(streamed: bool, tracked: bool):
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_isolated_fit,
            args=(child_conn, sharded_store, bench_scale["iterations"],
                  streamed, tracked, streaming_config))
        process.start()
        child_conn.close()
        result = parent_conn.recv()
        process.join()
        parent_conn.close()
        return result

    # Each pair runs both arms back to back, the first arm alternating, and
    # contributes one speed ratio (see the module docstring).
    speeds = {False: [], True: []}
    ratios, live = [], {}
    for pair in range(SPEED_PAIRS):
        for streamed in ((False, True) if pair % 2 == 0 else (True, False)):
            speed, _, live[streamed] = run_fit(streamed=streamed, tracked=False)
            speeds[streamed].append(speed)
        ratios.append(speeds[True][-1] / speeds[False][-1])
    speed_memory = statistics.median(speeds[False])
    speed_stream = statistics.median(speeds[True])
    speed_ratio = statistics.median(ratios)
    live_memory, live_stream = live[False], live[True]
    _, peak_memory, _ = run_fit(streamed=False, tracked=True)
    _, peak_stream, _ = run_fit(streamed=True, tracked=True)
    peak_ratio = peak_stream / peak_memory
    RESULTS["streaming_vs_inmemory"] = {
        "num_samples": NUM_SAMPLES, "batch_size": BATCH_SIZE, "dtype": DTYPE,
        "merged_paths_per_batch": 1104,
        "stream_window": streaming_config["stream_window"],
        "prefetch_depth": streaming_config["prefetch_depth"],
        "speed_pairs": SPEED_PAIRS,
        "samples_per_sec": {"in_memory": speed_memory, "streamed": speed_stream},
        "peak_bytes": {"in_memory": peak_memory, "streamed": peak_stream},
        "peak_live_batches": {"in_memory": live_memory, "streamed": live_stream},
        "speed_ratio": speed_ratio, "peak_ratio": peak_ratio}

    print(f"\nstreamed vs in-memory training on {NUM_SAMPLES} GEANT2 scenarios "
          f"({DTYPE}, 1104-path merged batches)")
    print(f"  in-memory: {speed_memory:7.2f} samples/s   "
          f"peak {peak_memory / 1e6:7.2f} MB   {live_memory} live batches")
    print(f"  streamed : {speed_stream:7.2f} samples/s   "
          f"peak {peak_stream / 1e6:7.2f} MB   {live_stream} live batches")
    print("  pairs    : " + "  ".join(f"{m:.2f}/{s:.2f}" for m, s in
                                   zip(speeds[False], speeds[True]))
          + " samples/s (in-memory/streamed)")
    print(f"  ratios   : speed {speed_ratio:.3f}x (bar ≥ 0.8), "
          f"peak {peak_ratio:.3f}x (bar ≤ 0.5)")

    # The streamed epoch must hold a bounded number of merged batches.
    assert live_stream < live_memory
    assert peak_ratio <= 0.5
    assert speed_ratio >= 0.8

