"""Batched training: batch/single equivalence and trainer integration.

The disjoint-union mini-batching of :mod:`repro.datasets.batching` must be
*semantically invisible*: a forward pass over a merged batch has to produce
exactly the per-sample predictions, concatenated, and the weighted
:meth:`RouteNetTrainer.evaluate_loss` has to report the same number whether
the validation scenarios are evaluated one by one or merged into batches of
unequal path counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    DatasetConfig,
    FeatureNormalizer,
    generate_dataset,
    make_batches,
    merge_tensorized_samples,
    tensorize_sample,
)
from repro.models import (
    ExtendedRouteNet,
    RouteNet,
    RouteNetConfig,
    RouteNetTrainer,
    TrainerConfig,
)
from repro.models.message_passing import build_index
from repro.nn.losses import mse_loss
from repro.nn.tensor import Tensor, no_grad
from repro.topology import linear_topology, ring_topology

from tests.support import float_tolerance

SMALL_CONFIG = RouteNetConfig(link_state_dim=6, path_state_dim=6, node_state_dim=6,
                              message_passing_iterations=2, readout_hidden_sizes=(8,),
                              seed=0)


def _mixed_tensorized(seed: int):
    """Scenarios from two topologies → unequal path counts per sample."""
    samples = generate_dataset(ring_topology(5), DatasetConfig(num_samples=4, seed=seed))
    samples += generate_dataset(linear_topology(7),
                                DatasetConfig(num_samples=3, seed=seed + 100))
    normalizer = FeatureNormalizer().fit(samples)
    return samples, [tensorize_sample(s, normalizer) for s in samples], normalizer


#: (model, tensorized scenarios, per-sample predictions) per model class,
#: shared across hypothesis examples so each draw only pays for one merge.
_EQUIV_CACHE = {}


def _equivalence_fixture(model_cls):
    if model_cls not in _EQUIV_CACHE:
        _, tensorized, _ = _mixed_tensorized(seed=20)
        model = model_cls(SMALL_CONFIG)
        with no_grad():
            per_sample = [model(t).data.copy() for t in tensorized]
        _EQUIV_CACHE[model_cls] = (model, tensorized, per_sample)
    return _EQUIV_CACHE[model_cls]


class TestBatchSingleEquivalence:
    """Property: merged-batch forward == concatenated per-sample forwards."""

    @pytest.mark.parametrize("model_cls", [RouteNet, ExtendedRouteNet])
    @pytest.mark.parametrize("batch_size", [2, 3, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forward_equivalence(self, model_cls, batch_size, seed):
        _, tensorized, _ = _mixed_tensorized(seed)
        model = model_cls(SMALL_CONFIG)
        with no_grad():
            separate = [model(t).data.copy() for t in tensorized]
            for start in range(0, len(tensorized), batch_size):
                group = tensorized[start:start + batch_size]
                merged = merge_tensorized_samples(group)
                batched = model(merged).data
                np.testing.assert_allclose(
                    batched, np.concatenate(separate[start:start + batch_size]),
                    atol=float_tolerance())
                # Unmerging the batched predictions recovers per-scenario rows.
                for chunk, expected in zip(merged.unmerge(batched),
                                           separate[start:start + batch_size]):
                    np.testing.assert_allclose(chunk, expected, atol=float_tolerance())

    @pytest.mark.parametrize("model_cls", [RouteNet, ExtendedRouteNet])
    @settings(max_examples=15, deadline=None)
    @given(indices=st.lists(st.integers(min_value=0, max_value=6),
                            min_size=1, max_size=5))
    def test_property_arbitrary_merges_match_concatenation(self, model_cls, indices):
        """Any multiset of scenarios, merged, predicts exactly like unmerged."""
        model, tensorized, per_sample = _equivalence_fixture(model_cls)
        group = [tensorized[i] for i in indices]
        merged = merge_tensorized_samples(group)
        with no_grad():
            batched = model(merged).data
        np.testing.assert_allclose(
            batched, np.concatenate([per_sample[i] for i in indices]),
            atol=float_tolerance())

    @pytest.mark.parametrize("model_cls", [RouteNet, ExtendedRouteNet])
    def test_shuffled_batches_cover_all_paths(self, model_cls, seed=3):
        _, tensorized, _ = _mixed_tensorized(seed)
        model = model_cls(SMALL_CONFIG)
        batches = make_batches(tensorized, 2, rng=np.random.default_rng(seed))
        batched_targets = np.concatenate([b.targets for b in batches])
        assert batched_targets.size == sum(t.num_paths for t in tensorized)
        with no_grad():
            for batch in batches:
                assert model(batch).shape == (batch.num_paths,)


class TestBatchedEvaluateLoss:
    def test_batched_and_unbatched_agree(self):
        """Weighted evaluate_loss is invariant to how paths are batched."""
        _, tensorized, normalizer = _mixed_tensorized(seed=5)
        trainer = RouteNetTrainer(ExtendedRouteNet(SMALL_CONFIG),
                                  TrainerConfig(epochs=1, seed=5),
                                  normalizer=normalizer)
        unbatched = trainer.evaluate_loss(tensorized)
        for batch_size in (2, 3, len(tensorized)):
            batched = trainer.evaluate_loss(make_batches(tensorized, batch_size))
            assert batched == pytest.approx(unbatched, abs=float_tolerance())

    def test_weighting_differs_from_naive_mean(self):
        """With unequal path counts the naive mean over items is biased."""
        _, tensorized, normalizer = _mixed_tensorized(seed=6)
        trainer = RouteNetTrainer(RouteNet(SMALL_CONFIG),
                                  TrainerConfig(epochs=1, seed=6),
                                  normalizer=normalizer)
        batches = make_batches(tensorized, 3)
        assert len({b.num_paths for b in batches}) > 1
        per_item = []
        with no_grad():
            for batch in batches:
                predictions = trainer.model(batch)
                targets = Tensor(np.asarray(batch.targets, dtype=predictions.data.dtype))
                loss = mse_loss(predictions, targets)
                per_item.append(float(loss.item()))
        weighted = trainer.evaluate_loss(batches)
        expected = (np.average(per_item, weights=[b.num_paths for b in batches]))
        assert weighted == pytest.approx(expected, abs=1e-12)


class TestBatchedFit:
    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)

    def test_fit_with_batches_learns(self):
        samples = generate_dataset(ring_topology(5), DatasetConfig(num_samples=8, seed=7))
        trainer = RouteNetTrainer(ExtendedRouteNet(SMALL_CONFIG),
                                  TrainerConfig(epochs=5, learning_rate=0.01,
                                                batch_size=4, seed=7))
        history = trainer.fit(samples[:6], val_samples=samples[6:])
        assert len(history.epochs) == 5
        assert history.train_loss[-1] < history.train_loss[0]
        assert all(np.isfinite(history.val_loss))

    def test_fit_without_shuffle_uses_static_batches(self):
        samples = generate_dataset(ring_topology(4), DatasetConfig(num_samples=5, seed=8))
        trainer = RouteNetTrainer(RouteNet(SMALL_CONFIG),
                                  TrainerConfig(epochs=3, batch_size=2,
                                                shuffle=False, seed=8))
        history = trainer.fit(samples)
        assert len(history.epochs) == 3
        assert np.isfinite(history.train_loss).all()

    @staticmethod
    def _count_merges(monkeypatch, samples, **config):
        """Fit 3 epochs; return how many batches the fit merged.

        Every epoch's batches are merged by the prefetcher's module, so
        counting calls there counts every merge of the fit."""
        import repro.datasets.prefetch as prefetch_module

        calls = []
        real_merge = prefetch_module.merge_tensorized_samples

        def counting_merge(members):
            calls.append(len(members))
            return real_merge(members)

        monkeypatch.setattr(prefetch_module, "merge_tensorized_samples", counting_merge)
        trainer = RouteNetTrainer(RouteNet(SMALL_CONFIG),
                                  TrainerConfig(epochs=3, **config))
        history = trainer.fit(samples)
        assert len(history.epochs) == 3
        return len(calls)

    def test_bucketed_fit_premerges_batches_once(self, monkeypatch):
        """With bucketing (the default) fit merges batches once, not per epoch."""
        samples = generate_dataset(ring_topology(4), DatasetConfig(num_samples=6, seed=12))
        assert self._count_merges(monkeypatch, samples, batch_size=2, seed=12) == 3

    def test_unshuffled_fit_merges_batches_once(self, monkeypatch):
        """shuffle=False fixes batch membership even without bucketing."""
        samples = generate_dataset(ring_topology(4), DatasetConfig(num_samples=6, seed=12))
        assert self._count_merges(monkeypatch, samples, batch_size=2,
                                  bucket_by_length=False, shuffle=False, seed=12) == 3

    def test_batch_size_one_fit_merges_batches_once(self, monkeypatch):
        """One-sample batches have fixed membership; shuffling only reorders them."""
        samples = generate_dataset(ring_topology(4), DatasetConfig(num_samples=6, seed=12))
        assert self._count_merges(monkeypatch, samples, batch_size=1, seed=12) == 6

    def test_unbucketed_fit_remerges_every_epoch(self, monkeypatch):
        """bucket_by_length=False restores the per-epoch shuffle-and-merge."""
        samples = generate_dataset(ring_topology(4), DatasetConfig(num_samples=6, seed=13))
        assert self._count_merges(monkeypatch, samples, batch_size=2,
                                  bucket_by_length=False, seed=13) == 3 * 3

    def test_bucketed_epochs_cover_every_sample(self):
        """Each bucketed epoch steps over every scenario exactly once."""
        samples = generate_dataset(ring_topology(4), DatasetConfig(num_samples=5, seed=14))
        trainer = RouteNetTrainer(RouteNet(SMALL_CONFIG),
                                  TrainerConfig(epochs=2, batch_size=2, seed=14))
        stepped: list = []
        original_train_group = trainer._train_group
        trainer._train_group = lambda pool, group: (stepped.extend(group),
                                                    original_train_group(pool, group))[1]
        trainer.fit(samples)
        total_paths = sum(t.num_paths for t in trainer.prepare(samples))
        batches_per_epoch = 3  # ceil(5 / 2)
        assert len(stepped) == 2 * batches_per_epoch
        for epoch_batches in (stepped[:batches_per_epoch], stepped[batches_per_epoch:]):
            assert sum(b.num_merged_samples for b in epoch_batches) == len(samples)
            assert sum(b.num_paths for b in epoch_batches) == total_paths

    def test_batch_size_one_matches_seed_behaviour(self):
        """batch_size=1 must reproduce the historical per-sample training.

        Equal path counts per scenario (one topology) so the per-path
        weighting of the reported epoch loss is also a no-op here; the
        optimisation steps themselves are identical regardless.
        """
        samples = generate_dataset(ring_topology(4), DatasetConfig(num_samples=6, seed=9))

        def run(config):
            trainer = RouteNetTrainer(RouteNet(SMALL_CONFIG), config)
            return trainer.fit(samples).train_loss

        base = run(TrainerConfig(epochs=3, learning_rate=0.01, seed=9))
        explicit = run(TrainerConfig(epochs=3, learning_rate=0.01, seed=9, batch_size=1))
        np.testing.assert_allclose(base, explicit, rtol=0, atol=0)


class TestIndexCaching:
    def test_build_index_memoised_per_sample(self):
        _, tensorized, _ = _mixed_tensorized(seed=10)
        sample = tensorized[0]
        assert build_index(sample) is build_index(sample)

    def test_copies_do_not_share_cached_index(self):
        _, tensorized, _ = _mixed_tensorized(seed=11)
        sample = tensorized[0]
        index = build_index(sample)
        copied = sample.copy()
        assert build_index(copied) is not index
