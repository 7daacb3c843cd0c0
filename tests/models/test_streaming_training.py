"""Out-of-core training equivalence and semantics.

The streaming path (``fit(dataset_path=...)`` over a sharded store, batches
produced by a :class:`~repro.datasets.prefetch.BatchPrefetcher`) must be an
*execution* detail, never an update-semantics one: with a bucketing window
covering the dataset, a streamed epoch builds exactly the batches the
in-memory trainer merges and visits them in the same RNG order, so the
parameter trajectories are **bit-identical** — in both RNN scan modes, with
2-member groups computed by a worker pool or in-process, and at any
prefetch depth.
"""

import contextlib

import numpy as np
import pytest

from repro.datasets import (
    BatchPrefetcher,
    DatasetConfig,
    FeatureNormalizer,
    generate_dataset,
    iter_window_batches,
    make_batches,
    save_dataset,
    tensorize_stream,
)
from repro.models import ExtendedRouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
from repro.topology import ring_topology
from tests.datasets.legacy_formats import save_json_blob
from tests.support import in_process_groups

NUM_SAMPLES = 8


@pytest.fixture(scope="module")
def samples():
    return generate_dataset(ring_topology(5),
                            DatasetConfig(num_samples=NUM_SAMPLES, seed=3,
                                          small_queue_fraction=0.5))


@pytest.fixture(scope="module")
def normalizer(samples):
    return FeatureNormalizer().fit(samples)


@pytest.fixture(scope="module")
def store(samples, normalizer, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("dataset") / "store")
    return save_dataset(samples, path, normalizer=normalizer, shards=3)


def _make_trainer(normalizer, scan_mode="stream", **config):
    model = ExtendedRouteNet(RouteNetConfig(
        link_state_dim=8, path_state_dim=8, node_state_dim=8,
        message_passing_iterations=2, seed=5, scan_mode=scan_mode))
    defaults = dict(epochs=2, learning_rate=0.005, batch_size=2, seed=5)
    defaults.update(config)
    return RouteNetTrainer(model, TrainerConfig(**defaults),
                           normalizer=FeatureNormalizer.from_dict(normalizer.to_dict()))


# ---------------------------------------------------------------------- #
# Streamed == in-memory, bit for bit
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("scan_mode", ["compiled", "stream"])
@pytest.mark.parametrize("backend", ["serial", "process"])
def test_streamed_epoch_bit_identical_across_backends(samples, normalizer, store,
                                                      scan_mode, backend):
    """Sharded reader + prefetcher (2-member groups, prefetch_depth=1)
    equals the in-memory path bit for bit, in both scan modes, with the
    groups computed in-process ("serial") or by a worker pool."""
    in_memory = _make_trainer(normalizer, scan_mode=scan_mode, num_workers=2)
    streamed = _make_trainer(normalizer, scan_mode=scan_mode, num_workers=2,
                             prefetch_depth=1)
    with in_process_groups() if backend == "serial" else contextlib.nullcontext():
        in_memory.fit(samples)
        streamed.fit(dataset_path=store)
    assert in_memory.history.train_loss == streamed.history.train_loss
    assert np.array_equal(in_memory.model.parameters_vector(),
                          streamed.model.parameters_vector())


@pytest.mark.parametrize("prefetch_depth", [1, 3])
def test_streamed_epoch_bit_identical_serial_loop(samples, normalizer, store,
                                                  prefetch_depth):
    """num_workers=1 (in-process groups of one): any prefetch depth, same
    result."""
    in_memory = _make_trainer(normalizer)
    in_memory.fit(samples)
    streamed = _make_trainer(normalizer, prefetch_depth=prefetch_depth)
    streamed.fit(dataset_path=store)
    assert in_memory.history.train_loss == streamed.history.train_loss
    assert np.array_equal(in_memory.model.parameters_vector(),
                          streamed.model.parameters_vector())


def test_streamed_epoch_bit_identical_unbucketed_shuffle(samples, normalizer,
                                                         store):
    """bucket_by_length=False shuffles batch *membership* (the in-memory
    make_batches(rng=...) regime); the streamed window must do the same."""
    in_memory = _make_trainer(normalizer, bucket_by_length=False)
    in_memory.fit(samples)
    streamed = _make_trainer(normalizer, bucket_by_length=False)
    streamed.fit(dataset_path=store)
    assert in_memory.history.train_loss == streamed.history.train_loss
    assert np.array_equal(in_memory.model.parameters_vector(),
                          streamed.model.parameters_vector())


def test_streamed_epoch_bit_identical_at_batch_size_one(tmp_path):
    """batch_size=1 (the default) never buckets in the in-memory path, so
    the streamed path must not either — regression test with samples of
    *differing* max path lengths, where bucketing would reorder visits."""
    mixed = (generate_dataset(ring_topology(5),
                              DatasetConfig(num_samples=3, seed=3,
                                            small_queue_fraction=0.5))
             + generate_dataset(ring_topology(7),
                                DatasetConfig(num_samples=3, seed=4,
                                              small_queue_fraction=0.5)))
    fitted = FeatureNormalizer().fit(mixed)
    lengths = {fitted.tensorize(s).max_path_length for s in mixed}
    assert len(lengths) > 1  # bucketing would actually reorder these
    store = save_dataset(mixed, str(tmp_path / "mixed"), normalizer=fitted,
                         shards=2)
    in_memory = _make_trainer(fitted, batch_size=1)
    in_memory.fit(mixed)
    streamed = _make_trainer(fitted, batch_size=1)
    streamed.fit(dataset_path=store)
    assert in_memory.history.train_loss == streamed.history.train_loss
    assert np.array_equal(in_memory.model.parameters_vector(),
                          streamed.model.parameters_vector())


def test_streaming_uses_store_normalizer(samples, store):
    """Without an explicit normaliser the trainer adopts the manifest's."""
    model = ExtendedRouteNet(RouteNetConfig(
        link_state_dim=8, path_state_dim=8, node_state_dim=8,
        message_passing_iterations=2, seed=5))
    trainer = RouteNetTrainer(model, TrainerConfig(epochs=1, batch_size=2, seed=5))
    trainer.fit(dataset_path=store)
    expected = FeatureNormalizer().fit(samples)
    assert trainer.normalizer.means == expected.means


def test_small_windows_bound_live_batches_and_still_learn(samples, normalizer,
                                                          store):
    """stream_window smaller than the epoch: bucketing degrades to per-window
    but training still works and far fewer batches are ever live."""
    trainer = _make_trainer(normalizer, epochs=3, batch_size=1,
                            stream_window=2, prefetch_depth=1)
    trainer.fit(dataset_path=store)
    assert len(trainer.history.epochs) == 3
    assert all(np.isfinite(loss) for loss in trainer.history.train_loss)
    # 8 batches per epoch, but at most prefetch_depth + producer + consumer
    # merged batches alive at once.
    assert max(trainer.history.peak_live_batches) <= 4
    in_memory = _make_trainer(normalizer, epochs=1, batch_size=1)
    in_memory.fit(samples)
    assert in_memory.history.peak_live_batches[-1] == NUM_SAMPLES


def test_history_records_throughput(samples, normalizer):
    trainer = _make_trainer(normalizer)
    trainer.fit(samples)
    assert all(sps is not None and sps > 0
               for sps in trainer.history.samples_per_sec)
    assert all(peak == 4 for peak in trainer.history.peak_live_batches)
    as_dict = trainer.history.as_dict()
    assert "samples_per_sec" in as_dict and "peak_live_batches" in as_dict


def test_fit_data_source_validation(samples, normalizer, store, tmp_path):
    trainer = _make_trainer(normalizer)
    with pytest.raises(ValueError, match="exactly one data source"):
        trainer.fit()
    with pytest.raises(ValueError, match="exactly one data source"):
        trainer.fit(samples, dataset_path=store)
    # A format-1 file cannot be streamed shard by shard.
    format1 = save_json_blob(samples[:2], str(tmp_path / "flat"))
    with pytest.raises(ValueError, match="sharded"):
        trainer.fit(dataset_path=format1)
    empty = save_dataset([], str(tmp_path / "empty"), shards=1)
    with pytest.raises(ValueError, match="empty"):
        trainer.fit(dataset_path=empty)
    # An empty in-memory source fails the same way, before any epoch.
    for batch_size in (1, 2):
        trainer = _make_trainer(normalizer, batch_size=batch_size)
        with pytest.raises(ValueError, match="train_samples is empty"):
            trainer.fit([])
        assert trainer.history.epochs == []


def test_streaming_checkpoint_resume_bit_exact(samples, normalizer, store,
                                               tmp_path):
    """Streamed training checkpoints/resumes as exactly as in-memory."""
    full = _make_trainer(normalizer, epochs=4)
    full.fit(dataset_path=store)
    checkpoint = str(tmp_path / "ck")
    first = _make_trainer(normalizer, epochs=2)
    first.fit(dataset_path=store, checkpoint_path=checkpoint)
    resumed = _make_trainer(normalizer, epochs=2)
    resumed.load_checkpoint(checkpoint)
    resumed.fit(dataset_path=store)
    assert full.history.train_loss == resumed.history.train_loss
    assert np.array_equal(full.model.parameters_vector(),
                          resumed.model.parameters_vector())


# ---------------------------------------------------------------------- #
# Prefetcher unit behaviour
# ---------------------------------------------------------------------- #
def test_window_batches_match_make_batches(samples, normalizer):
    """One window covering the dataset builds exactly the in-memory batches
    (same stable length-bucketed membership, same member order)."""
    items = [normalizer.tensorize(s) for s in samples]
    expected = make_batches(items, 2, bucket_by_length=True)
    streamed = list(iter_window_batches(tensorize_stream(samples, normalizer),
                                        batch_size=2, window_batches=64))
    assert len(streamed) == len(expected)
    for a, b in zip(streamed, expected):
        np.testing.assert_array_equal(a.targets, b.targets)
        np.testing.assert_array_equal(a.link_sequences, b.link_sequences)
        np.testing.assert_array_equal(a.sample_path_offsets, b.sample_path_offsets)


def test_prefetcher_propagates_errors(samples):
    unfitted = FeatureNormalizer()  # tensorising with it raises RuntimeError
    prefetcher = BatchPrefetcher(tensorize_stream(samples, unfitted), batch_size=2)
    with pytest.raises(RuntimeError, match="fitted"):
        list(prefetcher)


def test_prefetcher_reraises_promptly_past_queued_batches(samples, normalizer):
    """A dead producer surfaces its error at the *next* step, even with
    intact batches still queued ahead of the failure — a failed epoch must
    not hand out the rest of its queue first."""
    def poisoned():
        yield samples[0]
        yield samples[1]
        raise RuntimeError("poisoned source")

    prefetcher = BatchPrefetcher(tensorize_stream(poisoned(), normalizer),
                                 batch_size=1, window_batches=1, prefetch_depth=4)
    # Deterministic setup: let the producer queue both good batches, hit the
    # error and exit before the consumer touches the queue.
    prefetcher._thread.join(timeout=10.0)
    assert not prefetcher._thread.is_alive()
    assert prefetcher._queue.qsize() > 1  # good batches ahead of the error
    with pytest.raises(RuntimeError, match="poisoned"):
        next(iter(prefetcher))
    assert prefetcher._queue.qsize() == 0  # drained on the way out
    with pytest.raises(StopIteration):
        next(iter(prefetcher))


def test_prefetcher_context_manager_joins_on_consumer_error(samples, normalizer):
    """A consumer raising mid-epoch inside ``with`` still stops and joins
    the producer thread on the way out."""
    with pytest.raises(RuntimeError, match="consumer failed"):
        with BatchPrefetcher(tensorize_stream(samples, normalizer), batch_size=1,
                             prefetch_depth=1) as prefetcher:
            next(iter(prefetcher))
            raise RuntimeError("consumer failed")
    assert not prefetcher._thread.is_alive()
    with pytest.raises(StopIteration):
        next(iter(prefetcher))


def test_prefetcher_close_is_safe_midway(samples, normalizer):
    prefetcher = BatchPrefetcher(tensorize_stream(samples, normalizer), batch_size=1,
                                 prefetch_depth=1)
    first = next(iter(prefetcher))
    assert first.num_paths > 0
    prefetcher.close()
    # After close() the producer thread is gone — nothing can race the RNG.
    assert not prefetcher._thread.is_alive()
    prefetcher.close()  # idempotent
    with pytest.raises(StopIteration):
        next(iter(prefetcher))


def test_prefetcher_tracks_live_bytes(samples, normalizer):
    prefetcher = BatchPrefetcher(tensorize_stream(samples, normalizer), batch_size=2,
                                 prefetch_depth=1)
    batches = list(prefetcher)
    total_bytes = sum(batch.nbytes for batch in batches)
    assert prefetcher.peak_live_bytes > 0
    # The bound: far less than the whole epoch's merged batches at once.
    assert prefetcher.peak_live_bytes < total_bytes


def test_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(prefetch_depth=0)
    with pytest.raises(ValueError):
        TrainerConfig(stream_window=0)


def test_stream_window_mismatch_blocks_resume(samples, normalizer, tmp_path):
    """stream_window decides streamed batch membership, so resuming under a
    different value must be refused like batch_size would be."""
    checkpoint = str(tmp_path / "ck")
    trainer = _make_trainer(normalizer, epochs=1, stream_window=8)
    trainer.fit(samples, checkpoint_path=checkpoint)
    other = _make_trainer(normalizer, epochs=1, stream_window=4)
    with pytest.raises(ValueError, match="stream_window"):
        other.load_checkpoint(checkpoint)
