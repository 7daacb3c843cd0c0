"""Command-line interface: dataset generation, training and evaluation.

Run as a module, with ``src`` on ``PYTHONPATH`` (no console script is
installed)::

    python -m repro.cli generate --topology geant2 --samples 50 --output data/geant2
    python -m repro.cli generate --topology geant2 --samples 5000 --workers 4 \\
                                 --unit-size 64 --output data/geant2-big
    python -m repro.cli status   --dataset data/geant2
    python -m repro.cli train    --dataset data/geant2 --model extended --output models/ext
    python -m repro.cli evaluate --dataset data/geant2 --model extended --weights models/ext
    python -m repro.cli fig2     --train-samples 40 --eval-samples 15 --epochs 10

``generate`` always runs the dataset factory
(:func:`repro.datasets.factory.run_job`): it writes a catalogued format-3
store directory whose units draw from ``default_rng([seed, unit_index])``,
in-process with ``--workers 1``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.datasets.factory import (
    DatasetJobSpec,
    format_job_status,
    job_status,
    run_job,
)
from repro.datasets.normalization import FeatureNormalizer
from repro.datasets.splits import train_val_test_split
from repro.datasets.storage import load_dataset
from repro.models.config import RouteNetConfig
from repro.models.extended import ExtendedRouteNet
from repro.models.routenet import RouteNet
from repro.models.trainer import RouteNetTrainer, TrainerConfig, evaluate_model
from repro.nn.serialization import load_parameters, read_checkpoint_metadata, save_checkpoint
from repro.pipeline import run_fig2_experiment

__all__ = ["main", "build_parser"]

_MODELS = {
    "original": RouteNet,
    "extended": ExtendedRouteNet,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Reproduction of 'Towards more realistic network models based on GNNs'")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a dataset of samples")
    generate.add_argument("--topology", choices=["geant2", "nsfnet", "random"],
                          default="geant2")
    generate.add_argument("--samples", type=int, default=50)
    generate.add_argument("--small-queue-fraction", type=float, default=0.5)
    generate.add_argument("--backend", choices=["analytic", "simulation"], default="analytic")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--random-nodes", type=int, default=12,
                          help="node count when --topology random (the "
                               "factory topology 'random:N', drawn from the "
                               "job seed)")
    generate.add_argument("--output", required=True,
                          help="output store directory: a catalogued "
                               "sharded store with one shard per work unit")
    generate.add_argument("--workers", type=int, default=1,
                          help="worker processes, each executing whole work "
                               "units and committing them atomically as "
                               "shards (1 runs in-process; output content is "
                               "identical for every worker count)")
    generate.add_argument("--resume", action="store_true",
                          help="top up an existing store — only units that "
                               "are missing, failed, or whose shard file "
                               "disappeared are executed; re-running into an "
                               "existing store requires it")
    generate.add_argument("--unit-size", type=int, default=32,
                          help="samples per work unit and per shard (the "
                               "granularity of scheduling, atomic commit and "
                               "resume)")
    generate.add_argument("--limit-units", type=int, default=None,
                          help="execute at most this many units this "
                               "invocation, leaving the rest pending for a "
                               "later --resume run (budgeted top-up)")
    generate.add_argument("--max-retries", type=int, default=2,
                          help="re-execute a failing unit up to this many "
                               "extra times this run before quarantining it "
                               "(the run then completes and exits 1; "
                               "'status' shows the traceback, --resume "
                               "retries quarantined units)")
    generate.add_argument("--task-timeout", type=float, default=None,
                          help="seconds a worker may spend on one unit "
                               "before it is presumed hung, killed and "
                               "respawned, and the unit retried (default: "
                               "wait forever)")

    status = subparsers.add_parser(
        "status", help="report a factory store's per-unit progress")
    status.add_argument("--dataset", required=True,
                        help="factory store directory (written by 'generate')")

    train = subparsers.add_parser("train", help="train a model on a dataset")
    train.add_argument("--dataset", required=True)
    train.add_argument("--model", choices=sorted(_MODELS), default="extended")
    train.add_argument("--epochs", type=int, default=20)
    train.add_argument("--learning-rate", type=float, default=0.001)
    train.add_argument("--batch-size", type=int, default=1,
                       help="scenarios merged into one optimisation step")
    train.add_argument("--dtype", choices=["float32", "float64"], default=None,
                       help="training precision: float32 roughly halves the "
                            "memory footprint of large-batch training "
                            "(default: float64)")
    train.add_argument("--bucket-by-length", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="group scenarios of similar path length per merged "
                            "batch (shrinks padding; batches are merged once "
                            "and only reshuffled between epochs)")
    train.add_argument("--num-workers", type=int, default=1,
                       help="data-parallel worker processes: each optimisation "
                            "step averages the gradients of up to this many "
                            "batches (path-weighted) computed on model "
                            "replicas; 1 takes one batch per step, "
                            "in-process")
    train.add_argument("--task-timeout", type=float, default=None,
                       help="with --num-workers > 1: seconds a gradient worker "
                            "may spend on one task before it is presumed hung "
                            "and respawned; the task is re-dispatched and "
                            "recomputes bit-identically (default: wait "
                            "forever)")
    train.add_argument("--prefetch-depth", type=int, default=None,
                       help="out-of-core training: --dataset must be a sharded "
                            "store (as 'generate' writes); epochs are "
                            "streamed through a prefetch pipeline holding at "
                            "most this many merged batches ahead instead of "
                            "the whole tensorised dataset (trains on the full "
                            "store; no held-out split)")
    train.add_argument("--checkpoint", default=None,
                       help="trainer checkpoint path (.npz): resume from it "
                            "when it exists and rewrite it (weights + "
                            "optimizer moments + normalizer + history + RNG "
                            "state) after every epoch, so interrupted runs "
                            "resume from their last completed epoch; note "
                            "each invocation trains --epochs further epochs "
                            "on top of the restored state")
    train.add_argument("--state-dim", type=int, default=16)
    train.add_argument("--iterations", type=int, default=4)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--output", required=True, help="checkpoint path (.npz)")

    evaluate = subparsers.add_parser("evaluate", help="evaluate a trained model")
    evaluate.add_argument("--dataset", required=True)
    evaluate.add_argument("--model", choices=sorted(_MODELS), default=None,
                          help="default: the checkpoint's recorded model, "
                               "extended if absent")
    evaluate.add_argument("--weights", required=True)
    evaluate.add_argument("--state-dim", type=int, default=None,
                          help="default: the checkpoint's recorded state_dim, "
                               "16 if absent")
    evaluate.add_argument("--iterations", type=int, default=None,
                          help="default: the checkpoint's recorded iterations, "
                               "4 if absent")
    evaluate.add_argument("--dtype", choices=["float32", "float64"], default=None,
                          help="inference precision (default: the dtype recorded "
                               "in the checkpoint metadata, float64 if absent)")

    fig2 = subparsers.add_parser("fig2", help="run the Fig. 2 experiment end to end")
    fig2.add_argument("--train-samples", type=int, default=40)
    fig2.add_argument("--eval-samples", type=int, default=15)
    fig2.add_argument("--epochs", type=int, default=10)
    fig2.add_argument("--batch-size", type=int, default=1,
                      help="scenarios merged into one optimisation step")
    fig2.add_argument("--dtype", choices=["float32", "float64"], default=None,
                      help="training/evaluation precision (default: float64)")
    fig2.add_argument("--bucket-by-length", action=argparse.BooleanOptionalAction,
                      default=True,
                      help="bucket scenarios of similar path length per batch")
    fig2.add_argument("--num-workers", type=int, default=1,
                      help="data-parallel worker processes per training run "
                           "(see 'train --num-workers')")
    fig2.add_argument("--state-dim", type=int, default=16)
    fig2.add_argument("--seed", type=int, default=0)

    return parser


def _command_generate(args: argparse.Namespace) -> int:
    """Generation: job spec → resumable run of its work units → catalog.

    The spec is derived entirely from the CLI arguments, so re-running the
    same command line with ``--resume`` always addresses the same catalog;
    each unit's samples come from ``default_rng([seed, unit_index])``.
    """
    topology_name = (f"random:{args.random_nodes}" if args.topology == "random"
                     else args.topology)
    spec = DatasetJobSpec(
        topologies=(topology_name,),
        samples_per_scenario=args.samples,
        unit_size=args.unit_size,
        seed=args.seed,
        base_config={"small_queue_fraction": args.small_queue_fraction,
                     "backend": args.backend},
    )

    def progress(unit_index: int, completed: int, scheduled: int) -> None:
        print(f"unit {unit_index:06d} committed ({completed}/{scheduled} this run)")

    status = run_job(spec, args.output, workers=args.workers,
                     resume=args.resume, limit=args.limit_units,
                     progress=progress, max_retries=args.max_retries,
                     task_timeout=args.task_timeout)
    print(format_job_status(status))
    if status["quarantined_units"]:
        print(f"ERROR: {len(status['quarantined_units'])} unit(s) quarantined "
              "after exhausting retries; inspect with 'python -m repro.cli status' and "
              "re-run with --resume once fixed", file=sys.stderr)
        return 1
    return 0


def _command_status(args: argparse.Namespace) -> int:
    print(format_job_status(job_status(args.dataset)))
    return 0


def _build_model(name: str, state_dim: int, iterations: int, seed: int = 0,
                 dtype: Optional[str] = None):
    config = RouteNetConfig(link_state_dim=state_dim, path_state_dim=state_dim,
                            node_state_dim=state_dim,
                            message_passing_iterations=iterations, seed=seed,
                            dtype=dtype)
    return _MODELS[name](config)


def _command_train(args: argparse.Namespace) -> int:
    streaming = args.prefetch_depth is not None
    if streaming:
        # Out-of-core path: the sharded store is streamed epoch by epoch
        # (normaliser from its manifest); the whole store is the training
        # set — held-out splits of a larger-than-RAM dataset are a dataset-
        # generation concern, not a slicing one.
        normalizer = None
        train_samples = val_samples = None
    else:
        samples, normalizer, _ = load_dataset(args.dataset)
        train_samples, val_samples, _ = train_val_test_split(samples, 0.8, 0.1,
                                                             seed=args.seed)
    model = _build_model(args.model, args.state_dim, args.iterations, args.seed,
                         dtype=args.dtype)
    trainer = RouteNetTrainer(
        model,
        TrainerConfig(epochs=args.epochs, learning_rate=args.learning_rate,
                      batch_size=args.batch_size, dtype=args.dtype,
                      bucket_by_length=args.bucket_by_length,
                      num_workers=args.num_workers,
                      task_timeout=args.task_timeout,
                      prefetch_depth=args.prefetch_depth if streaming else 2,
                      seed=args.seed),
        normalizer=normalizer,
    )
    checkpoint = args.checkpoint
    if checkpoint and not checkpoint.endswith(".npz"):
        checkpoint = checkpoint + ".npz"
    if checkpoint and os.path.exists(checkpoint):
        trainer.load_checkpoint(checkpoint)
        print(f"resumed from {checkpoint} at epoch "
              f"{trainer.history.epochs[-1] if trainer.history.epochs else 0}")
    if streaming:
        history = trainer.fit(dataset_path=args.dataset, checkpoint_path=checkpoint)
    else:
        history = trainer.fit(train_samples, val_samples=val_samples or None,
                              checkpoint_path=checkpoint)
    if checkpoint:
        print(f"checkpoint at {checkpoint} covers epoch {history.epochs[-1]}")
    metadata = {
        "model": args.model,
        "epochs": len(history.epochs),
        "final_train_loss": history.train_loss[-1],
        "normalizer": trainer.normalizer.to_dict(),
        "state_dim": args.state_dim,
        "iterations": args.iterations,
        "dtype": str(model.dtype),
    }
    path = save_checkpoint(model, args.output, metadata=metadata)
    print(f"trained {args.model} model for {len(history.epochs)} epochs "
          f"(final loss {history.train_loss[-1]:.5f}); saved to {path}")
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    samples, normalizer, _ = load_dataset(args.dataset)
    # Build the model the checkpoint was trained as: a flag left unset
    # takes the setting the sidecar records.
    metadata = read_checkpoint_metadata(args.weights)

    def setting(flag, key, default):
        return flag if flag is not None else metadata.get(key, default)

    name = setting(args.model, "model", "extended")
    dtype = setting(args.dtype, "dtype", None)
    model = _build_model(name, setting(args.state_dim, "state_dim", 16),
                         setting(args.iterations, "iterations", 4), dtype=dtype)
    load_parameters(model, args.weights)
    if normalizer is None and "normalizer" in metadata:
        normalizer = FeatureNormalizer.from_dict(metadata["normalizer"])
    if normalizer is None:
        raise SystemExit("no normalizer available: regenerate the dataset or retrain")
    metrics = evaluate_model(model, samples, normalizer, dtype=dtype)
    print(f"model={name} paths={metrics['num_paths']}")
    print(f"mean relative error   : {metrics['mean_relative_error']:.4f}")
    print(f"median relative error : {metrics['median_relative_error']:.4f}")
    print(f"MAPE                  : {metrics['mape_percent']:.2f}%")
    print(f"RMSE                  : {metrics['rmse']:.6f} s")
    print(f"Pearson r             : {metrics['pearson']:.4f}")
    return 0


def _command_fig2(args: argparse.Namespace) -> int:
    result = run_fig2_experiment(
        num_train_samples=args.train_samples,
        num_eval_samples=args.eval_samples,
        epochs=args.epochs,
        batch_size=args.batch_size,
        state_dim=args.state_dim,
        dtype=args.dtype,
        bucket_by_length=args.bucket_by_length,
        num_workers=args.num_workers,
        seed=args.seed,
    )
    print(result.report())
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "status": _command_status,
    "train": _command_train,
    "evaluate": _command_evaluate,
    "fig2": _command_fig2,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.cli``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
