"""Data-parallel training equivalence and semantics.

``num_workers > 1`` training groups batches per optimiser step and
path-weight-averages their gradients (see
``RouteNetTrainer._train_group``).  The update rule is a function of
the group size only, never of the execution engine: the multiprocessing
worker pool and its in-process serial twin must produce **bit-identical**
parameter trajectories, in both RNN scan modes.  A group's averaged
gradient must also match the gradient of the group merged into one giant
disjoint-union batch — the semantics the weighting is designed to give.
"""

import numpy as np
import pytest

from repro.datasets import DatasetConfig, generate_dataset
from repro.datasets.batching import merge_tensorized_samples
from repro.models import ExtendedRouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
from repro.nn.parallel import SerialGradientExecutor, path_weighted_average
from repro.topology import ring_topology
from tests.support import float_tolerance

NUM_SAMPLES = 8


@pytest.fixture(scope="module")
def samples():
    return generate_dataset(ring_topology(5),
                            DatasetConfig(num_samples=NUM_SAMPLES, seed=3,
                                          small_queue_fraction=0.5))


def _fit(samples, num_workers, backend="process", scan_mode="stream",
         batch_size=2, epochs=2, **config):
    model = ExtendedRouteNet(RouteNetConfig(
        link_state_dim=8, path_state_dim=8, node_state_dim=8,
        message_passing_iterations=2, seed=5, scan_mode=scan_mode))
    trainer = RouteNetTrainer(model, TrainerConfig(
        epochs=epochs, learning_rate=0.005, batch_size=batch_size,
        num_workers=num_workers, parallel_backend=backend, seed=5, **config))
    trainer.fit(samples)
    return trainer


@pytest.mark.parametrize("scan_mode", ["compiled", "stream"])
def test_process_pool_matches_serial_bit_exact(samples, scan_mode):
    """The worker-pool engine and the serial engine run the same grouped
    update semantics: identical histories and bit-identical parameters."""
    pooled = _fit(samples, num_workers=2, backend="process", scan_mode=scan_mode)
    serial = _fit(samples, num_workers=2, backend="serial", scan_mode=scan_mode)
    assert pooled.history.train_loss == serial.history.train_loss
    assert np.array_equal(pooled.model.parameters_vector(),
                          serial.model.parameters_vector())


def test_parallel_training_reduces_loss(samples):
    trainer = _fit(samples, num_workers=2, epochs=4)
    assert trainer.history.train_loss[-1] < trainer.history.train_loss[0]


def test_group_gradient_matches_merged_batch(samples):
    """Path-weighted averaging of per-batch gradients equals (numerically)
    the gradient of the group merged into one disjoint-union batch."""
    trainer = _fit(samples, num_workers=1, epochs=1)
    items = trainer.prepare(samples)
    batch_a = merge_tensorized_samples(items[:2])
    batch_b = merge_tensorized_samples(items[2:5])

    executor = SerialGradientExecutor(trainer.model, num_workers=2,
                                      loss=trainer.config.loss)
    params = trainer.model.parameters_vector()
    executor.submit_group_payload(params, [batch_a, batch_b])
    results = executor.collect_group()
    averaged = path_weighted_average([r[0] for r in results],
                                     [r[2] for r in results])

    merged = merge_tensorized_samples(items[:5])
    executor.submit_group_payload(params, [merged])
    (merged_grad, merged_loss, merged_paths), = executor.collect_group()
    executor.close()

    assert merged_paths == results[0][2] + results[1][2]
    group_loss = ((results[0][1] * results[0][2] + results[1][1] * results[1][2])
                  / merged_paths)
    tol = float_tolerance(1e-9, 2e-3)
    np.testing.assert_allclose(group_loss, merged_loss, rtol=tol, atol=tol)
    scale = max(np.abs(merged_grad).max(), 1e-12)
    np.testing.assert_allclose(averaged / scale, merged_grad / scale,
                               rtol=tol, atol=tol)


def test_odd_group_sizes_are_handled(samples):
    """3 batches over 2 workers: a full group then a singleton group."""
    trainer = _fit(samples[:6], num_workers=2, backend="serial", epochs=2)
    assert len(trainer.history.epochs) == 2
    # 6 samples at batch_size=2 -> 3 batches per epoch, all visited.
    assert trainer.optimizer.step_count == 2 * 2  # ceil(3 / 2) groups per epoch


def test_unbucketed_shuffled_batches_match_across_backends(samples):
    """Unbucketed, shuffled batching re-merges fresh batches every epoch,
    and every step message ships them; the worker pool must still compute
    exactly what the serial engine does, epoch after epoch."""
    pooled = _fit(samples, num_workers=2, backend="process", scan_mode="compiled",
                  epochs=3, bucket_by_length=False)
    serial = _fit(samples, num_workers=2, backend="serial", scan_mode="compiled",
                  epochs=3, bucket_by_length=False)
    assert len(pooled.history.epochs) == 3
    assert pooled.history.train_loss == serial.history.train_loss
    assert np.array_equal(pooled.model.parameters_vector(),
                          serial.model.parameters_vector())


def test_parallel_matches_manual_gradient_accumulation(samples):
    """num_workers=2 equals a hand-rolled grouped-update reference loop."""
    from repro.nn.optimizers import Adam, clip_gradients_by_norm

    parallel = _fit(samples, num_workers=2, backend="serial", epochs=2)

    # Same scan mode as _fit: the comparison is about grouped-update
    # semantics, and bit-exactness only holds within one executor.
    model = ExtendedRouteNet(RouteNetConfig(
        link_state_dim=8, path_state_dim=8, node_state_dim=8,
        message_passing_iterations=2, seed=5, scan_mode="stream"))
    reference = RouteNetTrainer(model, TrainerConfig(
        epochs=2, learning_rate=0.005, batch_size=2, num_workers=2,
        parallel_backend="serial", seed=5))
    items = reference.prepare(samples)
    from repro.datasets.batching import make_batches
    batches = make_batches(items, 2, bucket_by_length=True)
    executor = SerialGradientExecutor(model, num_workers=2)
    rng = np.random.default_rng(5)
    for _ in range(2):
        order = rng.permutation(len(batches))
        for start in range(0, len(order), 2):
            group = [batches[i] for i in order[start:start + 2]]
            executor.submit_group_payload(model.parameters_vector(), group)
            results = executor.collect_group()
            grad = path_weighted_average([r[0] for r in results],
                                         [r[2] for r in results])
            model.load_gradients_vector(grad)
            clip_gradients_by_norm(model.parameters(), 1.0)
            reference.optimizer.step()
    executor.close()

    assert np.array_equal(parallel.model.parameters_vector(),
                          model.parameters_vector())
