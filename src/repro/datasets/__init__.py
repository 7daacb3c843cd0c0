"""Dataset substrate: samples, generators, tensorisation and storage.

A :class:`~repro.datasets.sample.Sample` bundles one simulated scenario —
topology (with per-node queue sizes), routing scheme, traffic matrix — with
the measured per-path performance (delay, jitter, loss).  Two generators
produce samples:

* :class:`~repro.datasets.simulation.SimulationGroundTruth` runs the
  packet-level simulator (the OMNeT++ substitute) — accurate but slow.
* :class:`~repro.datasets.analytic.AnalyticGroundTruth` evaluates a
  fixed-point M/M/1/K queueing network with measurement noise — fast enough
  to produce the training volumes the benchmarks need.

:mod:`repro.datasets.tensorize` converts samples into the index/feature
arrays the RouteNet models consume.  Datasets on disk are
:mod:`sharded <repro.datasets.sharded>` stores of binary npz shards
(format 3), written by :mod:`repro.datasets.storage` and, resumably and in
parallel, by the :mod:`dataset factory <repro.datasets.factory>`;
:mod:`repro.datasets.prefetch` plans, merges and queues every training
epoch's batches, from memory or streamed out of a store.  Gzipped JSON
blobs (format 1) and gzipped-JSONL stores (format 2) from older versions
still load, but are no longer written.
"""

from repro.datasets.sample import Sample
from repro.datasets.analytic import AnalyticGroundTruth
from repro.datasets.simulation import SimulationGroundTruth
from repro.datasets.generator import DatasetConfig, DatasetGenerator, generate_dataset
from repro.datasets.normalization import FeatureNormalizer
from repro.datasets.tensorize import TensorizedSample, tensorize_sample
from repro.datasets.batching import make_batches, merge_tensorized_samples, plan_batches
from repro.datasets.splits import train_val_test_split
from repro.datasets.storage import load_dataset, save_dataset
from repro.datasets.sharded import (
    ShardedDatasetReader,
    ShardedDatasetWriter,
    attach_normalizer,
    is_sharded_store,
)
from repro.datasets.factory import (
    DatasetJobSpec,
    WorkUnit,
    expand_units,
    execute_unit,
    job_status,
    merge_catalogs,
    run_job,
)
from repro.datasets.prefetch import BatchPrefetcher, iter_window_batches, tensorize_stream

__all__ = [
    "Sample",
    "AnalyticGroundTruth",
    "SimulationGroundTruth",
    "DatasetConfig",
    "DatasetGenerator",
    "generate_dataset",
    "FeatureNormalizer",
    "TensorizedSample",
    "tensorize_sample",
    "make_batches",
    "merge_tensorized_samples",
    "plan_batches",
    "train_val_test_split",
    "save_dataset",
    "load_dataset",
    "ShardedDatasetReader",
    "ShardedDatasetWriter",
    "attach_normalizer",
    "is_sharded_store",
    "BatchPrefetcher",
    "iter_window_batches",
    "tensorize_stream",
    "DatasetJobSpec",
    "WorkUnit",
    "expand_units",
    "execute_unit",
    "run_job",
    "job_status",
    "merge_catalogs",
]
