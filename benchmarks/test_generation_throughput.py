"""Dataset-factory generation throughput: simulator events/sec vs workers.

The dataset factory farms whole work units out to worker processes, so
simulation-backed generation — the cost centre of any OMNeT++-style
pipeline — should scale with the worker count.  This module runs one
simulation-backed job per worker count and lands a tracked
``generation_events_per_sec`` row in ``.benchmarks/BENCH_throughput.json``:
simulator events processed, wall-clock events/sec and samples/sec per
worker count.  The job (16 samples of 2 s of simulated time on a 6-ring,
in units of 2) takes a few seconds on one worker, so the farm's start-up
does not hide the scaling: a job of about 0.5 s read the same wall time
on 1 and 2 workers.

The worker-scaling bar (≥ 1.2x samples/sec at 4 workers over 1) is only
asserted on hosts with at least 4 CPUs; on smaller hosts (the committed
baseline comes from a 1-CPU container) the figures are recorded and a note
is printed instead — there is nothing to scale onto.

The winning run's ``manifest.json`` — the provenance catalog — is copied to
``.benchmarks/BENCH_generation_catalog.json`` so CI archives exactly
which job, seed paths and configs produced the benchmarked samples.
"""

from __future__ import annotations

import os
import shutil
import time

import pytest

from repro.datasets.factory import DatasetJobSpec, run_job


SCALING_BAR = 1.2

SAMPLES = 16
UNIT_SIZE = 2
SIMULATION_DURATION = 2.0

RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json(write_bench_rows):
    yield
    write_bench_rows(RESULTS)


def _bench_spec() -> DatasetJobSpec:
    """A simulation-backed sweep: 8 units of 2 samples on a 6-ring."""
    return DatasetJobSpec(
        topologies=("ring:6",),
        samples_per_scenario=SAMPLES,
        unit_size=UNIT_SIZE,
        seed=11,
        base_config={"backend": "simulation",
                     "simulation_duration": SIMULATION_DURATION},
    )


def test_generation_events_per_sec(tmp_path_factory, bench_results_dir):
    root = tmp_path_factory.mktemp("generation-bench")
    cpu_count = os.cpu_count() or 1
    worker_counts = [1, 2] + ([4] if cpu_count >= 4 else [])
    rows = {}
    for workers in worker_counts:
        path = str(root / f"workers{workers}")
        start = time.perf_counter()
        status = run_job(_bench_spec(), path, workers=workers)
        wall = time.perf_counter() - start
        assert status["complete"]
        rows[str(workers)] = {
            "wall_seconds": wall,
            "events_processed": status["events_processed"],
            "events_per_sec": status["events_processed"] / wall,
            "samples_per_sec": status["samples_written"] / wall,
        }

    # The simulator is seeded per unit: the event count is a property of
    # the job, not of how many processes ran it.
    assert len({row["events_processed"] for row in rows.values()}) == 1

    RESULTS["generation_events_per_sec"] = {
        "topology": "ring:6", "samples": SAMPLES, "unit_size": UNIT_SIZE,
        "backend": "simulation", "simulation_duration": SIMULATION_DURATION,
        "workers": rows,
    }
    # Archive the catalog that produced these figures (CI artifact).
    shutil.copyfile(
        os.path.join(str(root / f"workers{worker_counts[-1]}"), "manifest.json"),
        bench_results_dir / "BENCH_generation_catalog.json")

    print(f"\nfactory generation, {SAMPLES} simulation-backed samples on ring:6 "
          f"({SIMULATION_DURATION} s simulated each)")
    for workers in worker_counts:
        row = rows[str(workers)]
        print(f"  workers={workers}: {row['wall_seconds']:6.2f} s   "
              f"{row['events_per_sec']:9.0f} events/s   "
              f"{row['samples_per_sec']:6.2f} samples/s")

    if cpu_count >= 4:
        scaling = rows["4"]["samples_per_sec"] / rows["1"]["samples_per_sec"]
        RESULTS["generation_events_per_sec"]["scaling_4_vs_1"] = scaling
        print(f"  scaling : {scaling:.2f}x at 4 workers (bar ≥ {SCALING_BAR})")
        assert scaling >= SCALING_BAR
    else:
        # Nothing to scale onto: the committed baseline host has 1 CPU.
        print(f"  NOTE: worker-scaling bar (≥ {SCALING_BAR}x at 4 workers) "
              f"not asserted — host has {cpu_count} CPU(s)")
