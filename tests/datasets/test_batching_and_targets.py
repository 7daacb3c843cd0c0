"""Tests for mini-batch merging and for the normaliser's jitter/loss statistics."""

import numpy as np
import pytest

from repro.datasets import (
    DatasetConfig,
    FeatureNormalizer,
    generate_dataset,
    tensorize_sample,
)
from repro.datasets.batching import make_batches, merge_tensorized_samples
from repro.models import ExtendedRouteNet, RouteNet, RouteNetConfig
from repro.topology import linear_topology, ring_topology

SMALL_CONFIG = RouteNetConfig(link_state_dim=6, path_state_dim=6, node_state_dim=6,
                              message_passing_iterations=2, readout_hidden_sizes=(8,),
                              seed=0)


def _tensorized_list(num_samples=3, num_nodes=5, seed=0):
    samples = generate_dataset(ring_topology(num_nodes),
                               DatasetConfig(num_samples=num_samples, seed=seed))
    normalizer = FeatureNormalizer().fit(samples)
    return samples, [tensorize_sample(s, normalizer) for s in samples]


class TestMergeTensorizedSamples:
    def test_merged_counts(self):
        _, tensorized = _tensorized_list(3)
        merged = merge_tensorized_samples(tensorized)
        assert merged.num_paths == sum(t.num_paths for t in tensorized)
        assert merged.num_links == sum(t.num_links for t in tensorized)
        assert merged.num_nodes == sum(t.num_nodes for t in tensorized)
        merged.validate()

    def test_indices_are_disjoint(self):
        _, tensorized = _tensorized_list(2)
        merged = merge_tensorized_samples(tensorized)
        first = tensorized[0]
        # Rows belonging to the second sample must reference links/nodes
        # beyond the first sample's ranges wherever the mask is set.
        second_rows = merged.link_sequences[first.num_paths:]
        second_mask = merged.sequence_mask[first.num_paths:] > 0
        assert second_rows[second_mask].min() >= first.num_links
        second_nodes = merged.node_sequences[first.num_paths:]
        assert second_nodes[second_mask].min() >= first.num_nodes

    def test_targets_concatenated_in_order(self):
        _, tensorized = _tensorized_list(2)
        merged = merge_tensorized_samples(tensorized)
        np.testing.assert_allclose(
            merged.targets, np.concatenate([t.targets for t in tensorized]))

    def test_single_sample_returns_defensive_copy(self):
        """A 1-sample merge must not alias the cached per-sample arrays."""
        _, tensorized = _tensorized_list(1)
        merged = merge_tensorized_samples(tensorized)
        assert merged is not tensorized[0]
        for field in ("link_features", "node_features", "path_features",
                      "link_sequences", "node_sequences", "sequence_mask",
                      "path_lengths", "targets", "raw_delays"):
            original = getattr(tensorized[0], field)
            copied = getattr(merged, field)
            np.testing.assert_array_equal(copied, original)
            assert not np.shares_memory(copied, original)
        assert merged.pair_order == tensorized[0].pair_order
        assert merged.pair_order is not tensorized[0].pair_order
        np.testing.assert_array_equal(merged.sample_path_offsets,
                                      [0, tensorized[0].num_paths])
        merged.validate()

    def test_merged_offsets_and_unmerge(self):
        _, tensorized = _tensorized_list(3)
        merged = merge_tensorized_samples(tensorized)
        expected = np.cumsum([0] + [t.num_paths for t in tensorized])
        np.testing.assert_array_equal(merged.sample_path_offsets, expected)
        assert merged.num_merged_samples == 3
        chunks = merged.unmerge(merged.targets)
        assert len(chunks) == 3
        for chunk, sample in zip(chunks, tensorized):
            np.testing.assert_allclose(chunk, sample.targets)
        pair_chunks = merged.unmerge(merged.pair_order)
        for chunk, sample in zip(pair_chunks, tensorized):
            assert list(chunk) == list(sample.pair_order)

    def test_nested_merge_keeps_scenario_boundaries(self):
        _, tensorized = _tensorized_list(3)
        inner = merge_tensorized_samples(tensorized[:2])
        merged = merge_tensorized_samples([inner, tensorized[2]])
        expected = np.cumsum([0] + [t.num_paths for t in tensorized])
        np.testing.assert_array_equal(merged.sample_path_offsets, expected)
        assert merged.num_merged_samples == 3

    def test_unmerge_length_mismatch_rejected(self):
        _, tensorized = _tensorized_list(2)
        merged = merge_tensorized_samples(tensorized)
        with pytest.raises(ValueError):
            merged.unmerge(np.zeros(merged.num_paths + 1))

    def test_unmerged_sample_unmerge_is_identity(self):
        _, tensorized = _tensorized_list(1)
        sample = tensorized[0]
        assert sample.num_merged_samples == 1
        (chunk,) = sample.unmerge(sample.targets)
        np.testing.assert_allclose(chunk, sample.targets)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_tensorized_samples([])

    def test_model_forward_equivalence(self):
        """Predictions on a merged batch equal per-sample predictions."""
        _, tensorized = _tensorized_list(2, seed=3)
        model = ExtendedRouteNet(SMALL_CONFIG)
        merged = merge_tensorized_samples(tensorized)
        batched = model.predict(merged)
        separate = np.concatenate([model.predict(t) for t in tensorized])
        np.testing.assert_allclose(batched, separate, atol=1e-9)

    def test_model_forward_equivalence_original(self):
        _, tensorized = _tensorized_list(2, seed=4)
        model = RouteNet(SMALL_CONFIG)
        merged = merge_tensorized_samples(tensorized)
        np.testing.assert_allclose(
            model.predict(merged),
            np.concatenate([model.predict(t) for t in tensorized]),
            atol=1e-9)

    def test_different_topologies_merge(self):
        samples_a = generate_dataset(ring_topology(4), DatasetConfig(num_samples=1, seed=0))
        samples_b = generate_dataset(linear_topology(6), DatasetConfig(num_samples=1, seed=0))
        normalizer = FeatureNormalizer().fit(samples_a + samples_b)
        merged = merge_tensorized_samples([
            tensorize_sample(samples_a[0], normalizer),
            tensorize_sample(samples_b[0], normalizer),
        ])
        merged.validate()
        assert merged.num_nodes == 10


class TestMakeBatches:
    def test_batch_sizes(self):
        _, tensorized = _tensorized_list(5)
        batches = make_batches(tensorized, batch_size=2)
        assert len(batches) == 3
        assert batches[0].num_paths == 2 * tensorized[0].num_paths
        assert batches[-1].num_paths == tensorized[0].num_paths

    def test_shuffling_reproducible(self):
        _, tensorized = _tensorized_list(4)
        b1 = make_batches(tensorized, 2, rng=np.random.default_rng(1))
        b2 = make_batches(tensorized, 2, rng=np.random.default_rng(1))
        np.testing.assert_allclose(b1[0].targets, b2[0].targets)

    def test_validation(self):
        _, tensorized = _tensorized_list(2)
        with pytest.raises(ValueError):
            make_batches(tensorized, 0)
        with pytest.raises(ValueError):
            make_batches([], 2)


class TestBucketedBatching:
    """Length bucketing: deterministic membership, full coverage, less padding."""

    def _ragged_tensorized(self):
        """Scenarios from three topologies → three distinct max path lengths."""
        samples = generate_dataset(ring_topology(5), DatasetConfig(num_samples=3, seed=0))
        samples += generate_dataset(linear_topology(6),
                                    DatasetConfig(num_samples=3, seed=1))
        samples += generate_dataset(linear_topology(9),
                                    DatasetConfig(num_samples=3, seed=2))
        normalizer = FeatureNormalizer().fit(samples)
        tensorized = [tensorize_sample(s, normalizer) for s in samples]
        assert len({t.max_path_length for t in tensorized}) > 1
        return tensorized

    def test_every_sample_exactly_once(self):
        """Each scenario lands in exactly one batch per epoch, shuffled or not."""
        tensorized = self._ragged_tensorized()
        for rng in (None, np.random.default_rng(3)):
            batches = make_batches(tensorized, 4, rng=rng, bucket_by_length=True)
            batched_targets = np.sort(np.concatenate([b.targets for b in batches]))
            expected = np.sort(np.concatenate([t.targets for t in tensorized]))
            np.testing.assert_allclose(batched_targets, expected)
            assert sum(b.num_merged_samples for b in batches) == len(tensorized)

    def test_membership_independent_of_rng(self):
        """The rng permutes batch order only; batch contents are fixed."""
        tensorized = self._ragged_tensorized()
        reference = make_batches(tensorized, 4, bucket_by_length=True)
        shuffled = make_batches(tensorized, 4, rng=np.random.default_rng(9),
                                bucket_by_length=True)
        reference_keys = {tuple(np.sort(b.targets)) for b in reference}
        shuffled_keys = {tuple(np.sort(b.targets)) for b in shuffled}
        assert reference_keys == shuffled_keys

    def test_bucketing_reduces_padding(self):
        """Grouping similar lengths shrinks the padded (masked-out) tail."""
        tensorized = self._ragged_tensorized()

        def padded_entries(batches):
            return sum(b.sequence_mask.size - int((b.sequence_mask > 0).sum())
                       for b in batches)

        bucketed = make_batches(tensorized, 3, bucket_by_length=True)
        # Worst-case mixing: interleave short and long scenarios.
        order = np.argsort([t.max_path_length for t in tensorized], kind="stable")
        interleaved = [tensorized[i] for i in np.concatenate(
            [order[0::3], order[1::3], order[2::3]])]
        mixed = make_batches(interleaved, 3)
        assert padded_entries(bucketed) < padded_entries(mixed)
        # Unshuffled bucketed batches partition the length-sorted order into
        # contiguous runs, so their maximum lengths are non-decreasing.
        maxima = [b.max_path_length for b in bucketed]
        assert maxima == sorted(maxima)


class TestAlternativeTargets:
    """The models train on delay alone, but the normaliser still records the
    jitter and loss statistics every store's manifest carries."""

    def test_normalizer_covers_jitter_and_loss(self):
        samples, _ = _tensorized_list(3)
        normalizer = FeatureNormalizer().fit(samples)
        assert "jitter" in normalizer.means and "loss" in normalizer.means
        jitters = np.concatenate([s.jitters for s in samples])
        normalised = normalizer.normalize("jitter", jitters)
        assert abs(normalised.mean()) < 1e-9

    def test_normalizer_defaults_without_metrics(self):
        samples, _ = _tensorized_list(2)
        for sample in samples:
            sample.jitters = None
            sample.losses = None
        normalizer = FeatureNormalizer().fit(samples)
        assert normalizer.means["jitter"] == 0.0 and normalizer.stds["jitter"] == 1.0
