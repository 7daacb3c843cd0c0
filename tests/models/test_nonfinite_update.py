"""A non-finite training step is refused before the optimiser moves.

A NaN target turns the loss, and with it the gradient, into NaN.  ``fit``
must raise :class:`FloatingPointError` naming the epoch and the batch (or
group) before that step's optimiser update, so the model keeps the
parameters of the last finite step and the checkpoint on disk stays the
one of the last completed epoch.  Without the check the run finishes with
NaN parameters and writes them into the checkpoint.
"""

import copy

import numpy as np
import pytest

from repro.datasets import DatasetConfig, generate_dataset
from repro.models import ExtendedRouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
from repro.topology import ring_topology

POISONED = 2


@pytest.fixture(scope="module")
def samples():
    return generate_dataset(ring_topology(5), DatasetConfig(num_samples=4, seed=3))


def _poisoned(samples):
    """The samples with one NaN delay target in sample ``POISONED``."""
    bad = copy.deepcopy(samples[POISONED])
    bad.delays[0] = np.nan  # Sample validates only at construction
    return samples[:POISONED] + [bad] + samples[POISONED + 1:]


def _trainer(num_workers, backend, clip):
    model = ExtendedRouteNet(RouteNetConfig(
        link_state_dim=8, path_state_dim=8, node_state_dim=8,
        message_passing_iterations=2, seed=5))
    return RouteNetTrainer(model, TrainerConfig(
        epochs=1, learning_rate=0.005, shuffle=False, gradient_clip_norm=clip,
        num_workers=num_workers, parallel_backend=backend, seed=5))


@pytest.mark.parametrize("clip", [1.0, 0.0], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("num_workers, backend, step", [
    (1, "process", "batch 2"),   # one sample per step: sample 2 is batch 2
    (2, "serial", "group 1"),    # two per group: sample 2 is in group 1
], ids=["serial-loop", "serial-group"])
def test_non_finite_update_is_refused(samples, tmp_path, num_workers, backend,
                                      step, clip):
    trainer = _trainer(num_workers, backend, clip)
    checkpoint = str(tmp_path / "ck.npz")
    trainer.fit(samples, checkpoint_path=checkpoint)
    with pytest.raises(FloatingPointError, match=f"epoch 2, {step}: non-finite"):
        trainer.fit(_poisoned(samples), checkpoint_path=checkpoint)

    assert np.isfinite(trainer.model.parameters_vector()).all()
    restored = _trainer(num_workers, backend, clip)
    restored.load_checkpoint(checkpoint)
    assert restored.history.epochs == [1]
    assert np.isfinite(restored.model.parameters_vector()).all()
