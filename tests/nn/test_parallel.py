"""Tests for flat parameter/gradient vectors and the gradient worker pool."""

import ctypes
import json
import os

import numpy as np
import pytest

from repro.nn import parallel
from repro.nn.layers import MLP
from repro.nn.losses import mse_loss
from repro.nn.parallel import (
    GradientWorkerPool,
    make_gradient_executor,
    path_weighted_average,
)
from repro.nn.tensor import Tensor
from repro.testing.faults import ENV_MARKER_DIR, ENV_PLAN
from tests.support import replica_gradients


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
# The gradient worker pool
# ---------------------------------------------------------------------- #
def _toy_batches(seed: int = 3):
    """Tiny tensorised batches for pool tests."""
    from repro.datasets import DatasetConfig, generate_dataset
    from repro.datasets.batching import make_batches
    from repro.datasets.normalization import FeatureNormalizer
    from repro.datasets.tensorize import tensorize_sample
    from repro.topology import ring_topology

    samples = generate_dataset(ring_topology(4),
                               DatasetConfig(num_samples=4, seed=seed,
                                             small_queue_fraction=0.5))
    normalizer = FeatureNormalizer().fit(samples)
    items = [tensorize_sample(s, normalizer) for s in samples]
    return make_batches(items, 2)


def _toy_routenet(seed: int = 5):
    from repro.models import ExtendedRouteNet, RouteNetConfig

    return ExtendedRouteNet(RouteNetConfig(
        link_state_dim=6, path_state_dim=6, node_state_dim=6,
        message_passing_iterations=2, seed=seed))


def _geant2_batches():
    """Two 2-sample GEANT2 merged batches of 1104 paths each: the scan's
    GEMMs there are large enough for OpenBLAS to run them on several
    threads in the parent."""
    from repro.datasets import DatasetConfig, generate_dataset
    from repro.datasets.batching import make_batches
    from repro.datasets.normalization import FeatureNormalizer
    from repro.datasets.tensorize import tensorize_sample
    from repro.topology import geant2_topology

    samples = generate_dataset(geant2_topology(),
                               DatasetConfig(num_samples=4, seed=7,
                                             small_queue_fraction=0.5))
    normalizer = FeatureNormalizer().fit(samples)
    return make_batches([tensorize_sample(s, normalizer) for s in samples], 2)


def _poisoned_batch(batch):
    """A copy of ``batch`` whose link indices run past its links: computing
    on it raises ``IndexError`` in whichever process runs it."""
    poisoned = batch.copy()
    poisoned.link_sequences = poisoned.link_sequences + 42
    return poisoned


def _run_group(executor, flat_params, batches):
    """One synchronous group: ship ``batches`` and collect their results."""
    executor.submit_group_payload(flat_params, batches)
    return executor.collect_group()


def _assert_same_results(pooled, direct):
    for (grad_p, loss_p, paths_p), (grad_s, loss_s, paths_s) in zip(pooled, direct):
        assert np.array_equal(grad_p, grad_s)
        assert loss_p == loss_s
        assert paths_p == paths_s


class TestExecutors:
    def test_process_pool_matches_serial_gradients(self):
        """A pool group equals the workers' kernel run in this process."""
        model = _toy_routenet()
        batches = _toy_batches()
        params = model.parameters_vector()
        with GradientWorkerPool(model, num_workers=2) as pool:
            pooled = _run_group(pool, params, batches)
        direct = replica_gradients(model, params, batches)
        _assert_same_results(pooled, direct)

    def test_process_pool_matches_serial_at_the_shipping_size(self):
        """Workers compute on one BLAS thread, this process on the parent's
        default; at the shipping model size (state 16, 4 iterations,
        compiled scan) on 1104-path batches the gradients must still agree
        bit for bit."""
        from repro.models import ExtendedRouteNet, RouteNetConfig

        batches = _geant2_batches()
        assert [batch.num_paths for batch in batches] == [1104, 1104]
        model = ExtendedRouteNet(RouteNetConfig(seed=5))
        assert model.config.scan_mode == "compiled"
        params = model.parameters_vector()
        with GradientWorkerPool(model, num_workers=2) as pool:
            pooled = _run_group(pool, params, batches)
        direct = replica_gradients(model, params, batches)
        _assert_same_results(pooled, direct)

    def test_more_batches_than_workers_round_robins(self):
        model = _toy_routenet()
        batches = _toy_batches()
        params = model.parameters_vector()
        with GradientWorkerPool(model, num_workers=2) as pool:
            results = _run_group(pool, params, [batches[0], batches[1], batches[0]])
        assert len(results) == 3
        # Same batch dispatched to different workers gives identical results.
        assert np.array_equal(results[0][0], results[2][0])

    def test_worker_error_propagates_with_traceback(self):
        model = _toy_routenet()
        batches = _toy_batches()
        with GradientWorkerPool(model, num_workers=1) as pool:
            with pytest.raises(RuntimeError, match="IndexError"):
                _run_group(pool, model.parameters_vector(),
                           [_poisoned_batch(batches[0])])
            # The worker survives a failed task and keeps serving.
            results = _run_group(pool, model.parameters_vector(), [batches[0]])
            assert len(results) == 1

    def test_failed_group_leaves_no_reply_for_the_next_group(self):
        """Rank 0's error is raised only after rank 1's reply is in, so the
        next group gets its own results, not the failed group's leftover."""
        model = _toy_routenet()
        batches = _toy_batches()
        failed_params = model.parameters_vector()
        params = failed_params * 0.9
        with GradientWorkerPool(model, num_workers=2) as pool:
            with pytest.raises(RuntimeError, match="IndexError"):
                _run_group(pool, failed_params,
                           [_poisoned_batch(batches[0]), batches[0]])
            pooled = _run_group(pool, params, batches)
        direct = replica_gradients(model, params, batches)
        for (grad_p, loss_p, _), (grad_s, loss_s, _) in zip(pooled, direct):
            assert np.array_equal(grad_p, grad_s)
            assert loss_p == loss_s

    def test_close_is_idempotent(self):
        pool = GradientWorkerPool(_toy_routenet(), num_workers=1)
        pool.close()
        pool.close()

    def test_make_gradient_executor_backends(self):
        """The pool is the only engine: there is no backend to choose."""
        model = _toy_routenet()
        pool = make_gradient_executor(model, 1)
        assert isinstance(pool, GradientWorkerPool)
        pool.close()
        with pytest.raises(TypeError, match="backend"):
            make_gradient_executor(model, 1, backend="serial")

    def test_num_workers_validated(self):
        with pytest.raises(ValueError):
            GradientWorkerPool(_toy_routenet(), num_workers=0)


# ---------------------------------------------------------------------- #
# BLAS threads in the gradient workers
# ---------------------------------------------------------------------- #
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads():
    """This process's OpenBLAS thread count, or ``None`` where NumPy's BLAS
    has no OpenBLAS thread getter.  Looks the library up on its own rather
    than through the pool's helper, so a broken helper cannot skip the
    tests below."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_GETTERS:
            getter = getattr(library, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def _report_blas_threads(model, batch):
    """Stand-in for ``_compute_gradient``: answers with the worker's BLAS
    thread count in place of the loss."""
    return np.zeros(1), _blas_threads(), int(batch.num_paths)


_KILL_RANK0 = [{"site": "pool.step.start", "kind": "die",
                "match": {"rank": 0, "step": 0}, "once": True,
                "id": "kill-rank0"}]


class TestWorkerBlasThreads:
    @pytest.mark.parametrize("faults", [None, _KILL_RANK0],
                             ids=["first-start", "respawned"])
    def test_worker_computes_on_one_blas_thread(self, faults, tmp_path,
                                                monkeypatch):
        """Every worker, and a replacement respawned after a kill, runs
        its gradient on one BLAS thread; the parent keeps its default."""
        parent_threads = _blas_threads()
        if parent_threads is None:
            pytest.skip("NumPy's BLAS exports no OpenBLAS thread getter")
        if (os.cpu_count() or 1) < 2:
            pytest.skip("OpenBLAS already runs one thread on a 1-CPU host")
        # Fork carries the stand-in into the workers, which look
        # _compute_gradient up in their module at call time.
        monkeypatch.setattr(parallel, "_compute_gradient", _report_blas_threads)
        if faults is not None:
            monkeypatch.setenv(ENV_PLAN, json.dumps(faults))
            monkeypatch.setenv(ENV_MARKER_DIR, str(tmp_path / "markers"))
        model = _toy_routenet()
        with GradientWorkerPool(model, num_workers=2) as pool:
            results = _run_group(pool, model.parameters_vector(), _toy_batches())
            assert pool.restarts == (0 if faults is None else 1)
        assert [threads for _, threads, _ in results] == [1, 1]
        assert _blas_threads() == parent_threads

    @pytest.mark.parametrize("lookup", ["library-fails-to-load", "no-thread-setter"])
    def test_worker_without_blas_thread_control_still_serves(self, lookup,
                                                             monkeypatch):
        """Where the lookup finds no thread control, the worker still
        starts and computes the in-process gradients."""
        if lookup == "library-fails-to-load":
            monkeypatch.setattr(parallel, "_openblas_paths",
                                lambda: ["/nonexistent/libopenblas.so"])
        else:
            monkeypatch.setattr(parallel, "_OPENBLAS_SETTERS", ("no_such_symbol",))
        model = _toy_routenet()
        batches = _toy_batches()
        params = model.parameters_vector()
        with GradientWorkerPool(model, num_workers=2) as pool:
            pooled = _run_group(pool, params, batches)
            assert pool.restarts == 0
        direct = replica_gradients(model, params, batches)
        _assert_same_results(pooled, direct)
