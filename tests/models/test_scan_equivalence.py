"""Streaming and compiled scans vs the stacked oracle: model-level equivalence.

The ``scan_mode`` switch must be semantically invisible: for both RouteNet
architectures, the streaming checkpointed scan *and* the compiled
bucket-vectorised kernel path have to reproduce the predictions and every
parameter gradient of the stacked formulation in
:mod:`tests.models.stacked_oracle` within rounding, in whichever precision
the suite runs at.  That is what licenses the compiled path on the training
hot loop.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.datasets import (
    DatasetConfig,
    FeatureNormalizer,
    generate_dataset,
    tensorize_sample,
)
from repro.datasets.batching import merge_tensorized_samples
from repro.models import ExtendedRouteNet, RouteNet, RouteNetConfig
from repro.models import extended as extended_module
from repro.models import routenet as routenet_module
from repro.nn.losses import mse_loss
from repro.nn.tensor import Tensor, no_grad

from tests.models.stacked_oracle import STACKED
from tests.support import float_tolerance

BASE_CONFIG = RouteNetConfig(link_state_dim=6, path_state_dim=6, node_state_dim=6,
                             message_passing_iterations=3, readout_hidden_sizes=(8,),
                             seed=0)


def _tensorized_mix(seed: int = 0):
    """Ragged scenarios (two topologies) plus their merged disjoint union."""
    from repro.topology import linear_topology, ring_topology

    samples = generate_dataset(ring_topology(5), DatasetConfig(num_samples=2, seed=seed))
    samples += generate_dataset(linear_topology(7),
                                DatasetConfig(num_samples=2, seed=seed + 50))
    normalizer = FeatureNormalizer().fit(samples)
    tensorized = [tensorize_sample(s, normalizer) for s in samples]
    return tensorized + [merge_tensorized_samples(tensorized)]


@pytest.fixture(scope="module")
def scenario_mix():
    return _tensorized_mix()


def _model_pair(model_cls, scan_mode):
    candidate = model_cls(dataclasses.replace(BASE_CONFIG, scan_mode=scan_mode))
    return candidate, STACKED[model_cls](BASE_CONFIG)


@pytest.mark.parametrize("scan_mode", ["stream", "compiled"])
@pytest.mark.parametrize("model_cls", [RouteNet, ExtendedRouteNet])
class TestScanModeEquivalence:
    def test_forward_matches(self, model_cls, scan_mode, scenario_mix):
        candidate, stacked = _model_pair(model_cls, scan_mode)
        with no_grad():
            for sample in scenario_mix:
                np.testing.assert_allclose(
                    candidate(sample).data, stacked(sample).data,
                    atol=float_tolerance(), rtol=float_tolerance(1e-9, 1e-4))

    def test_gradients_match(self, model_cls, scan_mode, scenario_mix):
        """Every parameter gradient of a training loss agrees across modes."""
        candidate, stacked = _model_pair(model_cls, scan_mode)
        for sample in scenario_mix:
            grads = {}
            for label, model in ((scan_mode, candidate), ("stacked", stacked)):
                model.zero_grad()
                loss = mse_loss(model(sample), Tensor(sample.targets))
                loss.backward()
                grads[label] = {name: p.grad.copy()
                                for name, p in model.named_parameters()}
            for name, reference in grads["stacked"].items():
                scale = max(1.0, float(np.abs(reference).max()))
                np.testing.assert_allclose(
                    grads[scan_mode][name] / scale, reference / scale,
                    atol=float_tolerance(1e-8, 5e-3),
                    err_msg=f"{model_cls.__name__}.{name}")

    def test_predict_matches(self, model_cls, scan_mode, scenario_mix):
        """Inference (the no-checkpoint streaming paths) agrees too."""
        candidate, stacked = _model_pair(model_cls, scan_mode)
        for sample in scenario_mix:
            np.testing.assert_allclose(
                candidate.predict(sample), stacked.predict(sample),
                atol=float_tolerance(), rtol=float_tolerance(1e-9, 1e-4))


def test_compiled_matches_stream_directly(scenario_mix):
    """The compiled kernels replay the streaming scan's arithmetic with the
    same op order and the same stable-sigmoid formulation, so the two modes
    agree far tighter than either does with the stacked oracle (only
    BLAS-shape rounding separates them)."""
    for model_cls in (RouteNet, ExtendedRouteNet):
        compiled, _ = _model_pair(model_cls, "compiled")
        stream = model_cls(dataclasses.replace(BASE_CONFIG, scan_mode="stream"))
        with no_grad():
            for sample in scenario_mix:
                np.testing.assert_allclose(
                    compiled(sample).data, stream(sample).data,
                    atol=float_tolerance(1e-12, 1e-5),
                    rtol=float_tolerance(1e-10, 1e-4))


def test_oracle_does_not_run_the_scans_it_checks(scenario_mix, monkeypatch):
    """The oracle replaces the whole message-passing step, so neither model's
    streaming scan is reached when it runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("the stacked oracle reached scan_rnn")

    for module in (routenet_module, extended_module):
        monkeypatch.setattr(module, "scan_rnn", refuse)
    for model_cls in (RouteNet, ExtendedRouteNet):
        STACKED[model_cls](BASE_CONFIG)(scenario_mix[-1])


def test_scan_mode_validated():
    with pytest.raises(ValueError):
        RouteNetConfig(scan_mode="lazy")
    with pytest.raises(ValueError):
        RouteNetConfig(scan_mode="stacked")


def test_default_scan_mode_is_compiled():
    assert RouteNetConfig().scan_mode == "compiled"
