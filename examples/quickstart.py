"""Quickstart: train an Extended RouteNet delay model in a couple of minutes.

The script generates a small dataset of NSFNET scenarios with mixed queue
sizes, trains the Extended RouteNet on it, and prints the accuracy of the
delay predictions on held-out scenarios.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    DatasetConfig,
    ExtendedRouteNet,
    RouteNetConfig,
    RouteNetTrainer,
    TrainerConfig,
    generate_dataset,
    nsfnet_topology,
    train_val_test_split,
)
from repro.models import evaluate_model


def main() -> None:
    # 1. Generate scenarios: NSFNET with half the devices limited to 1-packet
    #    buffers, traffic swept between 35% and 80% peak utilisation.
    topology = nsfnet_topology()
    config = DatasetConfig(num_samples=30, small_queue_fraction=0.5,
                           utilization_range=(0.35, 0.8), seed=1)
    samples = generate_dataset(topology, config)
    train, val, test = train_val_test_split(samples, 0.7, 0.15, seed=1)
    print(f"generated {len(samples)} samples "
          f"({len(train)} train / {len(val)} val / {len(test)} test), "
          f"{samples[0].num_paths} paths each")

    # 2. Train the Extended RouteNet (the paper's model with a node entity).
    #    batch_size=4 merges four scenarios into each optimisation step,
    #    which amortises the per-step overhead (see repro.datasets.batching).
    #    dtype="float32" runs the whole autograd stack in single precision —
    #    about half the training memory and noticeably faster on large merged
    #    batches, with predictions matching float64 to ~4 decimals (drop the
    #    argument, or pass "float64", for full precision; the CLI,
    #    python -m repro.cli, exposes the same switch as --dtype).
    model = ExtendedRouteNet(RouteNetConfig(
        link_state_dim=16, path_state_dim=16, node_state_dim=16,
        message_passing_iterations=4, seed=1, dtype="float32"))
    trainer = RouteNetTrainer(model, TrainerConfig(epochs=10, learning_rate=0.003,
                                                   batch_size=4, dtype="float32",
                                                   seed=1, log_every=1))
    trainer.fit(train, val_samples=val)

    # 3. Evaluate on unseen scenarios.
    metrics = evaluate_model(model, test, trainer.normalizer)
    print("\nHeld-out evaluation")
    print(f"  paths evaluated      : {metrics['num_paths']}")
    print(f"  mean relative error  : {metrics['mean_relative_error']:.3f}")
    print(f"  median relative error: {metrics['median_relative_error']:.3f}")
    print(f"  Pearson correlation  : {metrics['pearson']:.3f}")

    # 4. Predict the delays of one concrete scenario.
    sample = test[0]
    predicted = trainer.predict_delays(sample)
    worst = int(np.argmax(np.abs(predicted - sample.delays) / sample.delays))
    src, dst = sample.pair_order[worst]
    print("\nExample predictions on one scenario:")
    for row in range(0, sample.num_paths, max(1, sample.num_paths // 5)):
        s, d = sample.pair_order[row]
        print(f"  path {s:2d}->{d:2d}: predicted {predicted[row] * 1e3:7.3f} ms, "
              f"measured {sample.delays[row] * 1e3:7.3f} ms")
    print(f"  (largest relative error on path {src}->{dst})")


if __name__ == "__main__":
    main()
