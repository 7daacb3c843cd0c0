"""Exact training resume: trainer checkpoints round-trip everything.

The headline bugfix behind these tests: ``Adam.state_dict`` used to
persist only ``step_count`` and silently drop the Adam moment buffers, so a
resumed run applied the bias correction ``1/(1 - beta**step_count)`` to
freshly zeroed moments — quietly wrong updates.  A full trainer checkpoint
(weights + optimiser moments + normaliser + history + RNG state) must make
"train N epochs straight" and "train k, checkpoint, reload, train N - k"
produce bit-identical parameters and the same recorded history.
"""

import json
import os

import numpy as np
import pytest

from repro.datasets import DatasetConfig, generate_dataset
from repro.models import ExtendedRouteNet, RouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
from repro.topology import ring_topology

TOTAL_EPOCHS = 6
SPLIT_EPOCHS = 2


@pytest.fixture(scope="module")
def samples():
    return generate_dataset(ring_topology(5),
                            DatasetConfig(num_samples=6, seed=3,
                                          small_queue_fraction=0.5))


def _model_config():
    return RouteNetConfig(link_state_dim=8, path_state_dim=8, node_state_dim=8,
                          message_passing_iterations=2, seed=5)


def _trainer(epochs: int, **overrides) -> RouteNetTrainer:
    config = dict(epochs=epochs, learning_rate=0.005, batch_size=2, seed=5)
    config.update(overrides)
    return RouteNetTrainer(ExtendedRouteNet(_model_config()), TrainerConfig(**config))


@pytest.mark.parametrize("batch_size", [1, 2])
def test_resume_is_bit_exact(samples, tmp_path, batch_size):
    """Straight N epochs == k epochs + checkpoint + reload + (N - k) epochs."""
    straight = _trainer(TOTAL_EPOCHS, batch_size=batch_size)
    straight.fit(samples)

    first_leg = _trainer(SPLIT_EPOCHS, batch_size=batch_size)
    first_leg.fit(samples)
    path = first_leg.save_checkpoint(str(tmp_path / "ckpt"))

    second_leg = _trainer(TOTAL_EPOCHS - SPLIT_EPOCHS, batch_size=batch_size)
    second_leg.load_checkpoint(path)
    second_leg.fit(samples)

    assert np.array_equal(straight.model.parameters_vector(),
                          second_leg.model.parameters_vector())
    assert second_leg.history.epochs == straight.history.epochs
    assert second_leg.history.train_loss == straight.history.train_loss


def test_resume_with_validation_split(samples, tmp_path):
    train, val = samples[:4], samples[4:]
    straight = _trainer(TOTAL_EPOCHS)
    straight.fit(train, val_samples=val)

    first_leg = _trainer(SPLIT_EPOCHS)
    first_leg.fit(train, val_samples=val)
    path = first_leg.save_checkpoint(str(tmp_path / "ckpt"))
    second_leg = _trainer(TOTAL_EPOCHS - SPLIT_EPOCHS)
    second_leg.load_checkpoint(path)
    second_leg.fit(train, val_samples=val)

    assert np.array_equal(straight.model.parameters_vector(),
                          second_leg.model.parameters_vector())
    assert second_leg.history.val_loss == straight.history.val_loss


def test_checkpoint_restores_optimizer_moments(samples, tmp_path):
    trainer = _trainer(SPLIT_EPOCHS)
    trainer.fit(samples)
    path = trainer.save_checkpoint(str(tmp_path / "ckpt"))

    restored = _trainer(1)
    assert np.abs(restored.optimizer._first_moment[0]).max() == 0
    restored.load_checkpoint(path)
    assert restored.optimizer.step_count == trainer.optimizer.step_count
    for fresh, original in zip(restored.optimizer._first_moment,
                               trainer.optimizer._first_moment):
        assert np.array_equal(fresh, original)
    for fresh, original in zip(restored.optimizer._second_moment,
                               trainer.optimizer._second_moment):
        assert np.array_equal(fresh, original)


def test_checkpoint_restores_normalizer_history_and_rng(samples, tmp_path):
    trainer = _trainer(SPLIT_EPOCHS)
    trainer.fit(samples)
    path = trainer.save_checkpoint(str(tmp_path / "ckpt"))

    restored = _trainer(1)
    metadata = restored.load_checkpoint(path)
    assert metadata["model_class"] == "ExtendedRouteNet"
    assert restored.normalizer is not None
    assert restored.normalizer.means == trainer.normalizer.means
    assert restored.normalizer.stds == trainer.normalizer.stds
    assert restored.history.epochs == trainer.history.epochs
    assert restored.history.train_loss == trainer.history.train_loss
    assert (restored._rng.bit_generator.state
            == trainer._rng.bit_generator.state)
    # The .npz and its sidecar both exist.
    assert os.path.exists(path)
    assert os.path.exists(path[: -len(".npz")] + ".json")


def test_mismatched_model_class_raises(samples, tmp_path):
    trainer = _trainer(1)
    trainer.fit(samples)
    path = trainer.save_checkpoint(str(tmp_path / "ckpt"))
    other = RouteNetTrainer(RouteNet(_model_config()),
                            TrainerConfig(epochs=1, seed=5))
    with pytest.raises(ValueError, match="ExtendedRouteNet"):
        other.load_checkpoint(path)


def test_mismatched_training_setup_raises(samples, tmp_path):
    trainer = _trainer(1)
    trainer.fit(samples)
    path = trainer.save_checkpoint(str(tmp_path / "ckpt"))
    with pytest.raises(ValueError, match="batch_size"):
        _trainer(1, batch_size=4).load_checkpoint(path)
    # Epochs and learning rate are deliberate resume knobs: no error.
    _trainer(3, learning_rate=0.001).load_checkpoint(path)


def test_fit_checkpoint_path_saves_every_epoch(samples, tmp_path):
    """fit(checkpoint_path=...) makes interrupted runs resumable: after the
    run the checkpoint covers the last completed epoch."""
    path = str(tmp_path / "rolling.npz")
    trainer = _trainer(3)
    trainer.fit(samples, checkpoint_path=path)
    restored = _trainer(1)
    restored.load_checkpoint(path)
    assert restored.history.epochs == [1, 2, 3]
    assert np.array_equal(restored.model.parameters_vector(),
                          trainer.model.parameters_vector())


def _record_settings(path, **settings):
    """Rewrite the trainer_config a checkpoint records, as an older
    version that still had these settings would have written it."""
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    metadata = json.loads(str(arrays["meta.json"]))
    metadata["trainer_config"].update(settings)
    arrays["meta.json"] = np.array(json.dumps(metadata))
    np.savez_compressed(path, **arrays)


def test_checkpoint_with_a_removed_setting_loads(samples, tmp_path):
    """Checkpoints whose trainer_config still holds ``overlap`` (a
    pipelining switch that never changed an update) or ``parallel_backend``
    (an engine choice, recorded by every checkpoint written while it
    existed) keep loading, and resume bit-exactly."""
    trainer = _trainer(1)
    trainer.fit(samples)
    path = trainer.save_checkpoint(str(tmp_path / "ckpt"))
    _record_settings(path, overlap=True, parallel_backend="serial")
    restored = _trainer(1)
    restored.load_checkpoint(path)
    assert np.array_equal(restored.model.parameters_vector(),
                          trainer.model.parameters_vector())
    trainer.fit(samples)
    restored.fit(samples)
    assert restored.history.train_loss == trainer.history.train_loss
    assert np.array_equal(restored.model.parameters_vector(),
                          trainer.model.parameters_vector())


def test_checkpoint_recording_the_mse_loss_loads(samples, tmp_path):
    """Every checkpoint written while ``loss`` was a setting records it;
    one that recorded "mse", the loss every run now trains on, loads and
    resumes bit-exactly."""
    trainer = _trainer(1)
    trainer.fit(samples)
    path = trainer.save_checkpoint(str(tmp_path / "ckpt"))
    _record_settings(path, loss="mse")
    restored = _trainer(1)
    restored.load_checkpoint(path)
    assert np.array_equal(restored.model.parameters_vector(),
                          trainer.model.parameters_vector())
    trainer.fit(samples)
    restored.fit(samples)
    assert restored.history.train_loss == trainer.history.train_loss
    assert np.array_equal(restored.model.parameters_vector(),
                          trainer.model.parameters_vector())


def test_checkpoint_recording_another_loss_is_refused(samples, tmp_path):
    """A checkpoint trained on another loss optimised a different
    objective: resuming it under MSE is refused, naming ``loss``."""
    trainer = _trainer(1)
    trainer.fit(samples)
    path = trainer.save_checkpoint(str(tmp_path / "ckpt"))
    _record_settings(path, loss="huber")
    with pytest.raises(ValueError, match="loss: saved='huber' current='mse'"):
        _trainer(1).load_checkpoint(path)


def test_checkpoint_recording_the_delay_target_loads(samples, tmp_path):
    """Every checkpoint written while ``target`` was a setting records it;
    one that recorded "delay", the one target every run now trains on,
    loads and resumes bit-exactly."""
    trainer = _trainer(1)
    trainer.fit(samples)
    path = trainer.save_checkpoint(str(tmp_path / "ckpt"))
    _record_settings(path, target="delay")
    restored = _trainer(1)
    restored.load_checkpoint(path)
    assert np.array_equal(restored.model.parameters_vector(),
                          trainer.model.parameters_vector())
    trainer.fit(samples)
    restored.fit(samples)
    assert restored.history.train_loss == trainer.history.train_loss
    assert np.array_equal(restored.model.parameters_vector(),
                          trainer.model.parameters_vector())


def test_checkpoint_recording_another_target_is_refused(samples, tmp_path):
    """A checkpoint trained on another target regressed a different
    quantity: resuming it on delay is refused, naming ``target``."""
    trainer = _trainer(1)
    trainer.fit(samples)
    path = trainer.save_checkpoint(str(tmp_path / "ckpt"))
    _record_settings(path, target="jitter")
    with pytest.raises(ValueError, match="target: saved='jitter' current='delay'"):
        _trainer(1).load_checkpoint(path)


def test_missing_checkpoint_raises(tmp_path):
    trainer = _trainer(1)
    with pytest.raises(FileNotFoundError):
        trainer.load_checkpoint(str(tmp_path / "nope"))


def test_trainer_config_validation():
    with pytest.raises(ValueError, match="early_stopping_patience"):
        TrainerConfig(early_stopping_patience=0)
    with pytest.raises(ValueError, match="early_stopping_patience"):
        TrainerConfig(early_stopping_patience=-3)
    TrainerConfig(early_stopping_patience=None)
    TrainerConfig(early_stopping_patience=1)
    with pytest.raises(ValueError, match="gradient_clip_norm"):
        TrainerConfig(gradient_clip_norm=-0.5)
    TrainerConfig(gradient_clip_norm=0.0)
    with pytest.raises(ValueError, match="num_workers"):
        TrainerConfig(num_workers=0)
    with pytest.raises(TypeError, match="parallel_backend"):
        TrainerConfig(parallel_backend="serial")
    with pytest.raises(TypeError, match="overlap"):
        TrainerConfig(overlap=True)
    with pytest.raises(TypeError, match="loss"):
        TrainerConfig(loss="mse")
    with pytest.raises(TypeError, match="target"):
        TrainerConfig(target="delay")
