"""Gradient-pool fault recovery.

The acceptance bar: a worker killed or hung mid-run is respawned, its
in-flight work re-dispatched against the same parameter ring slot and
batch, and the recovered run is **bit-identical** to a fault-free one —
for a single gradient group and for a whole 2-worker training run.  Pool
start-up failure degrades, with a warning, to computing every group
in-process, bit-identically to the pool, instead of failing the run."""

import json

import numpy as np
import pytest

from repro.datasets import DatasetConfig, generate_dataset
from repro.datasets.batching import make_batches
from repro.datasets.normalization import FeatureNormalizer
from repro.models import ExtendedRouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
from repro.nn.parallel import GradientWorkerPool
from repro.testing.faults import ENV_MARKER_DIR, ENV_PLAN
from repro.topology import ring_topology
from tests.support import replica_gradients


def _toy_model(seed: int = 5) -> ExtendedRouteNet:
    return ExtendedRouteNet(RouteNetConfig(
        link_state_dim=6, path_state_dim=6, node_state_dim=6,
        message_passing_iterations=2, seed=seed))


def _toy_samples(count: int = 4, seed: int = 3):
    return generate_dataset(ring_topology(4),
                            DatasetConfig(num_samples=count, seed=seed,
                                          small_queue_fraction=0.5))


def _toy_batches():
    samples = _toy_samples()
    normalizer = FeatureNormalizer().fit(samples)
    return make_batches([normalizer.tensorize(s) for s in samples], 2)


def _arm(monkeypatch, tmp_path, specs):
    """Plant a fault plan in the environment (inherited by pool workers)."""
    monkeypatch.setenv(ENV_PLAN, json.dumps(specs))
    monkeypatch.setenv(ENV_MARKER_DIR, str(tmp_path / "markers"))


def _run_group_results(pool, batches):
    model = _toy_model()
    pool.submit_group_payload(model.parameters_vector(), batches)
    return pool.collect_group()


def _expected_results(batches):
    """The group's gradients computed in this process."""
    model = _toy_model()
    return replica_gradients(model, model.parameters_vector(), batches)


def test_killed_worker_is_respawned_and_results_are_bit_identical(
        tmp_path, monkeypatch):
    """`pool.step.start` kill of rank 0's first task: the supervisor reaps
    the corpse, respawns it and re-sends the step with its batch — same
    ring slot, same batch, bit-identical gradient."""
    batches = _toy_batches()
    expected = _expected_results(batches)

    _arm(monkeypatch, tmp_path, [{"site": "pool.step.start", "kind": "die",
                                  "match": {"rank": 0, "step": 0},
                                  "once": True, "id": "kill-rank0"}])
    with GradientWorkerPool(_toy_model(), num_workers=2) as pool:
        recovered = _run_group_results(pool, batches)
        assert pool.restarts == 1
        # The marker proves the fault actually fired (in the dead worker).
        assert (tmp_path / "markers" / "fired-kill-rank0").is_file()

    for (grad_r, loss_r, paths_r), (grad_e, loss_e, paths_e) in \
            zip(recovered, expected):
        assert np.array_equal(grad_r, grad_e)
        assert loss_r == loss_e
        assert paths_r == paths_e


def test_hung_worker_is_killed_after_task_timeout_and_work_redone(
        tmp_path, monkeypatch):
    batches = _toy_batches()
    expected = _expected_results(batches)

    _arm(monkeypatch, tmp_path, [{"site": "pool.step.start", "kind": "hang",
                                  "seconds": 60.0,
                                  "match": {"rank": 1, "step": 0},
                                  "once": True, "id": "hang-rank1"}])
    with GradientWorkerPool(_toy_model(), num_workers=2,
                            task_timeout=2.0) as pool:
        recovered = _run_group_results(pool, batches)
        assert pool.restarts == 1

    for (grad_r, _, _), (grad_e, _, _) in zip(recovered, expected):
        assert np.array_equal(grad_r, grad_e)


def _fit(samples, **config_overrides):
    parameters = dict(epochs=2, learning_rate=0.005, batch_size=2,
                      num_workers=2, seed=5)
    parameters.update(config_overrides)
    trainer = RouteNetTrainer(_toy_model(), TrainerConfig(**parameters))
    trainer.fit(samples)
    return trainer


def test_training_run_with_injected_worker_kill_is_bit_identical(
        tmp_path, monkeypatch):
    """The tentpole acceptance criterion for the training farm: a 2-worker
    fit whose rank-0 worker is killed mid-epoch produces the same weights
    and loss history, bit for bit, as the fault-free run."""
    samples = _toy_samples(count=6)
    clean = _fit(samples)

    _arm(monkeypatch, tmp_path, [{"site": "pool.step.start", "kind": "die",
                                  "match": {"rank": 0, "step": 1},
                                  "once": True, "id": "kill-mid-training"}])
    faulted = _fit(samples)
    assert (tmp_path / "markers" / "fired-kill-mid-training").is_file()

    assert faulted.history.train_loss == clean.history.train_loss
    assert faulted.history.epochs == clean.history.epochs
    assert np.array_equal(faulted.model.parameters_vector(),
                          clean.model.parameters_vector())


def test_pool_startup_failure_falls_back_to_serial_with_warning(monkeypatch):
    """A pool that cannot start leaves fit computing its groups in-process,
    with a warning, on the trajectory the pool computes."""
    import repro.models.trainer as trainer_module

    def refuse_to_start(model, num_workers, **kwargs):
        raise RuntimeError("injected start-up failure")

    samples = _toy_samples()
    reference = _fit(samples, epochs=1)

    monkeypatch.setattr(trainer_module, "make_gradient_executor", refuse_to_start)
    with pytest.warns(RuntimeWarning, match="falling back to in-process"):
        degraded = _fit(samples, epochs=1)

    assert degraded.history.train_loss == reference.history.train_loss
    assert np.array_equal(degraded.model.parameters_vector(),
                          reference.model.parameters_vector())
