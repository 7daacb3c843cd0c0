"""End-to-end experiment pipelines (the code behind Fig. 2 and the examples).

:func:`run_fig2_experiment` reproduces the structure of the paper's
evaluation at a configurable (scaled-down) size:

1. generate a dataset of GEANT2 samples with mixed queue sizes,
2. train the original RouteNet and the Extended RouteNet on the same
   training split,
3. evaluate both on a held-out GEANT2 split *and* on freshly generated
   NSFNET samples (a topology never seen during training),
4. return the four relative-error CDFs — (extended, original) x (GEANT2,
   NSFNET) — plus summary statistics, matching the four curves of Fig. 2.

:func:`quick_experiment` is a minutes-scale configuration used by the
quickstart example and the smoke tests.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional

from repro.datasets.generator import DatasetConfig, generate_dataset
from repro.datasets.splits import train_val_test_split
from repro.evaluation.cdf import ErrorCDF, compare_cdfs
from repro.evaluation.report import format_cdf_table
from repro.models.config import RouteNetConfig
from repro.models.extended import ExtendedRouteNet
from repro.models.routenet import RouteNet
from repro.models.trainer import RouteNetTrainer, TrainerConfig, evaluate_model
from repro.topology.geant2 import geant2_topology
from repro.topology.graph import Topology
from repro.topology.nsfnet import nsfnet_topology

__all__ = ["ExperimentResult", "run_fig2_experiment", "quick_experiment"]


@dataclasses.dataclass
class ExperimentResult:
    """Output of a Fig. 2-style experiment."""

    cdfs: Dict[str, ErrorCDF]
    metrics: Dict[str, Dict[str, object]]
    training_seconds: Dict[str, float]
    dataset_sizes: Dict[str, int]

    def summary_rows(self) -> List[Dict[str, float]]:
        """Fig. 2 summary: one row per (model, topology) curve."""
        return compare_cdfs(list(self.cdfs.values()))

    def report(self) -> str:
        """Human-readable text report (the tabular equivalent of Fig. 2)."""
        return format_cdf_table(list(self.cdfs.values()))

    def mean_error(self, label: str) -> float:
        """Mean absolute relative error of one curve."""
        return self.cdfs[label].mean_absolute_error()




def run_fig2_experiment(
    train_topology: Optional[Topology] = None,
    generalization_topology: Optional[Topology] = None,
    num_train_samples: int = 60,
    num_eval_samples: int = 20,
    epochs: int = 12,
    small_queue_fraction: float = 0.5,
    message_passing_iterations: int = 4,
    state_dim: int = 16,
    learning_rate: float = 0.003,
    batch_size: int = 1,
    dtype: Optional[str] = None,
    scan_mode: str = "compiled",
    bucket_by_length: bool = True,
    num_workers: int = 1,
    seed: int = 0,
    backend: str = "analytic",
    utilization_range=(0.35, 0.8),
) -> ExperimentResult:
    """Train both models and evaluate them on seen and unseen topologies.

    The defaults are scaled down from the paper's 400k/100k sample counts to
    run on a CPU in minutes; the comparison structure is identical.
    ``dtype`` selects the training precision ("float32" roughly halves the
    training memory footprint; ``None`` keeps the process default).
    ``scan_mode`` picks the path-RNN executor ("compiled", the default
    precompiled step kernels, or "stream", the interpreted streaming scan;
    see :class:`~repro.models.config.RouteNetConfig`) and
    ``bucket_by_length`` groups similar-length scenarios per merged batch
    when ``batch_size > 1``.  ``num_workers > 1`` trains data-parallel: each
    optimisation step path-weight-averages the gradients of up to that many
    batches computed concurrently on worker-process model replicas.
    """
    train_topology = train_topology if train_topology is not None else geant2_topology()
    generalization_topology = (generalization_topology if generalization_topology is not None
                               else nsfnet_topology())

    dataset_config = DatasetConfig(
        num_samples=num_train_samples + num_eval_samples,
        small_queue_fraction=small_queue_fraction,
        utilization_range=utilization_range,
        backend=backend,
        seed=seed,
    )
    primary_samples = generate_dataset(train_topology, dataset_config)
    train_samples, val_samples, test_samples = train_val_test_split(
        primary_samples,
        train_fraction=num_train_samples / len(primary_samples),
        val_fraction=0.0,
        seed=seed,
    )
    test_samples = val_samples + test_samples

    generalization_config = dataclasses.replace(
        dataset_config, num_samples=num_eval_samples, seed=seed + 1)
    generalization_samples = generate_dataset(generalization_topology, generalization_config)

    model_config = RouteNetConfig(
        link_state_dim=state_dim,
        path_state_dim=state_dim,
        node_state_dim=state_dim,
        message_passing_iterations=message_passing_iterations,
        dtype=dtype,
        scan_mode=scan_mode,
        seed=seed,
    )
    trainer_config = TrainerConfig(epochs=epochs, learning_rate=learning_rate,
                                   batch_size=batch_size, dtype=dtype,
                                   bucket_by_length=bucket_by_length,
                                   num_workers=num_workers,
                                   seed=seed)

    cdfs: Dict[str, ErrorCDF] = {}
    metrics: Dict[str, Dict[str, object]] = {}
    training_seconds: Dict[str, float] = {}

    for model_name, model in (
        ("extended", ExtendedRouteNet(model_config)),
        ("original", RouteNet(model_config)),
    ):
        trainer = RouteNetTrainer(model, trainer_config)
        start = time.perf_counter()
        trainer.fit(train_samples)
        training_seconds[model_name] = time.perf_counter() - start

        for topology_name, eval_samples in (
            (train_topology.name, test_samples),
            (generalization_topology.name, generalization_samples),
        ):
            # One evaluate_model call feeds both the metrics table and the
            # CDF, so the samples are tensorised exactly once per (model,
            # topology) pair.
            label = f"{model_name}-{topology_name}"
            metrics[label] = evaluate_model(model, eval_samples, trainer.normalizer,
                                            dtype=dtype)
            cdfs[label] = ErrorCDF(label=label, errors=metrics[label]["relative_errors"])

    return ExperimentResult(
        cdfs=cdfs,
        metrics=metrics,
        training_seconds=training_seconds,
        dataset_sizes={
            "train": len(train_samples),
            "test": len(test_samples),
            "generalization": len(generalization_samples),
        },
    )


def quick_experiment(seed: int = 0) -> ExperimentResult:
    """A minutes-scale Fig. 2 experiment on small synthetic-size datasets."""
    return run_fig2_experiment(
        num_train_samples=16,
        num_eval_samples=6,
        epochs=6,
        state_dim=8,
        message_passing_iterations=3,
        seed=seed,
    )
