"""Tests for flat parameter/gradient vectors and the gradient worker pool."""

import numpy as np
import pytest

from repro.nn.layers import MLP
from repro.nn.losses import mse_loss
from repro.nn.parallel import (
    GradientWorkerPool,
    SerialGradientExecutor,
    make_gradient_executor,
    path_weighted_average,
)
from repro.nn.tensor import Tensor


def _make_model(seed: int = 7) -> MLP:
    return MLP(3, [8, 4], 1, rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------- #
# Flat vector pack / unpack
# ---------------------------------------------------------------------- #
class TestParameterVectors:
    def test_round_trip_is_exact(self):
        model = _make_model()
        vector = model.parameters_vector()
        assert vector.ndim == 1
        assert vector.size == model.num_parameters()
        other = _make_model(seed=99)
        assert not np.array_equal(other.parameters_vector(), vector)
        other.load_parameters_vector(vector)
        assert np.array_equal(other.parameters_vector(), vector)
        for p_a, p_b in zip(model.parameters(), other.parameters()):
            assert np.array_equal(p_a.data, p_b.data)
            assert p_a.data.dtype == p_b.data.dtype

    def test_gradient_round_trip_and_missing_grads_are_zeros(self):
        model = _make_model()
        x = Tensor(np.random.default_rng(0).normal(size=(5, 3)))
        loss = mse_loss(model(x), Tensor(np.zeros((5, 1))))
        loss.backward()
        grads = model.gradients_vector()
        assert grads.shape == model.parameters_vector().shape
        assert np.abs(grads).max() > 0
        fresh = _make_model()
        fresh.load_gradients_vector(grads)
        assert np.array_equal(fresh.gradients_vector(), grads)
        fresh.zero_grad()
        for p in fresh.parameters():
            p.grad = None
        assert np.array_equal(fresh.gradients_vector(), np.zeros_like(grads))

    def test_wrong_size_raises(self):
        model = _make_model()
        with pytest.raises(ValueError, match="flat vector"):
            model.load_parameters_vector(np.zeros(3))
        with pytest.raises(ValueError, match="flat vector"):
            model.load_gradients_vector(np.zeros((2, 2)))


# ---------------------------------------------------------------------- #
# Path-weighted averaging
# ---------------------------------------------------------------------- #
class TestPathWeightedAverage:
    def test_single_vector_returned_unchanged(self):
        vector = np.array([1.0, 2.0, 3.0])
        assert path_weighted_average([vector], [17]) is not None
        assert np.array_equal(path_weighted_average([vector], [17]), vector)

    def test_weighted_formula(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        averaged = path_weighted_average([a, b], [3, 1])
        assert np.allclose(averaged, [0.75, 0.25])

    def test_preserves_float32(self):
        a = np.ones(4, dtype=np.float32)
        b = np.zeros(4, dtype=np.float32)
        averaged = path_weighted_average([a, b], [1, 1])
        assert averaged.dtype == np.float32

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            path_weighted_average([], [])
        with pytest.raises(ValueError):
            path_weighted_average([np.ones(2)], [1, 2])


# ---------------------------------------------------------------------- #
# Execution engines
# ---------------------------------------------------------------------- #
def _toy_batches(seed: int = 3):
    """Tiny tensorised batches for engine tests."""
    from repro.datasets import DatasetConfig, generate_dataset
    from repro.datasets.batching import make_batches
    from repro.datasets.normalization import FeatureNormalizer
    from repro.topology import ring_topology

    samples = generate_dataset(ring_topology(4),
                               DatasetConfig(num_samples=4, seed=seed,
                                             small_queue_fraction=0.5))
    normalizer = FeatureNormalizer().fit(samples)
    items = [normalizer.tensorize(s) for s in samples]
    return make_batches(items, 2)


def _toy_routenet(seed: int = 5):
    from repro.models import ExtendedRouteNet, RouteNetConfig

    return ExtendedRouteNet(RouteNetConfig(
        link_state_dim=6, path_state_dim=6, node_state_dim=6,
        message_passing_iterations=2, seed=seed))


class TestExecutors:
    def test_process_pool_matches_serial_gradients(self):
        model = _toy_routenet()
        batches = _toy_batches()
        params = model.parameters_vector()
        with GradientWorkerPool(model, num_workers=2) as pool, \
                SerialGradientExecutor(model, num_workers=2) as serial:
            pool.set_batches(batches)
            serial.set_batches(batches)
            pooled = pool.run_group(params, [0, 1])
            direct = serial.run_group(params, [0, 1])
        for (grad_p, loss_p, paths_p), (grad_s, loss_s, paths_s) in zip(pooled, direct):
            assert np.array_equal(grad_p, grad_s)
            assert loss_p == loss_s
            assert paths_p == paths_s

    def test_more_batches_than_workers_round_robins(self):
        model = _toy_routenet()
        batches = _toy_batches()
        params = model.parameters_vector()
        with GradientWorkerPool(model, num_workers=2) as pool:
            pool.set_batches(batches)
            results = pool.run_group(params, [0, 1, 0])
        assert len(results) == 3
        # Same batch dispatched to different workers gives identical results.
        assert np.array_equal(results[0][0], results[2][0])

    def test_worker_error_propagates_with_traceback(self):
        model = _toy_routenet()
        batches = _toy_batches()
        with GradientWorkerPool(model, num_workers=1) as pool:
            pool.set_batches(batches)
            with pytest.raises(RuntimeError, match="IndexError"):
                pool.run_group(model.parameters_vector(), [42])
            # The worker survives a failed task and keeps serving.
            results = pool.run_group(model.parameters_vector(), [0])
            assert len(results) == 1

    def test_failed_group_leaves_no_reply_for_the_next_group(self):
        """Rank 0's error is raised only after rank 1's reply is in, so the
        next group gets its own results, not the failed group's leftover."""
        model = _toy_routenet()
        batches = _toy_batches()
        failed_params = model.parameters_vector()
        params = failed_params * 0.9
        with GradientWorkerPool(model, num_workers=2) as pool, \
                SerialGradientExecutor(model, num_workers=2) as serial:
            pool.set_batches(batches)
            serial.set_batches(batches)
            with pytest.raises(RuntimeError, match="IndexError"):
                pool.run_group(failed_params, [42, 0])
            pooled = pool.run_group(params, [0, 1])
            direct = serial.run_group(params, [0, 1])
        for (grad_p, loss_p, _), (grad_s, loss_s, _) in zip(pooled, direct):
            assert np.array_equal(grad_p, grad_s)
            assert loss_p == loss_s

    def test_close_is_idempotent(self):
        pool = GradientWorkerPool(_toy_routenet(), num_workers=1)
        pool.close()
        pool.close()

    def test_ensure_batches_uploads_once_for_same_objects(self):
        executor = SerialGradientExecutor(_toy_routenet(), num_workers=2)
        batches = _toy_batches()
        uploads = []
        original = executor.set_batches

        def counting(batch_list):
            uploads.append(len(batch_list))
            original(batch_list)

        executor.set_batches = counting
        executor.ensure_batches(batches)
        executor.ensure_batches(batches)
        executor.ensure_batches(list(batches))  # same objects, new list
        assert uploads == [len(batches)]
        executor.ensure_batches(_toy_batches())  # fresh objects re-upload
        assert len(uploads) == 2

    def test_make_gradient_executor_backends(self):
        model = _toy_routenet()
        assert isinstance(make_gradient_executor(model, 2, backend="serial"),
                          SerialGradientExecutor)
        pool = make_gradient_executor(model, 1, backend="process")
        assert isinstance(pool, GradientWorkerPool)
        pool.close()
        with pytest.raises(ValueError, match="backend"):
            make_gradient_executor(model, 1, backend="threads")

    def test_num_workers_validated(self):
        with pytest.raises(ValueError):
            SerialGradientExecutor(_toy_routenet(), num_workers=0)
        with pytest.raises(ValueError):
            GradientWorkerPool(_toy_routenet(), num_workers=0)
