"""Every training epoch's batches: planned, merged and queued ahead of the
trainer by one :class:`BatchPrefetcher` stream.

A producer thread consumes an iterable of tensorised items, cuts it into
*windows* of ``window_batches`` batches' worth of items, plans each window
with :func:`repro.datasets.batching.plan_batches` (the one rule for batch
membership and visit order), merges the batches in visit order and hands
them to the trainer through a bounded queue.  ``RouteNetTrainer.fit``'s two
sources differ only in their items, their window and their merge:

* in memory, the items are the tensorisations the trainer builds once per
  fit, before the first epoch, and one window covers the dataset.  A
  :class:`MergeMemo` keeps each merged batch for as long as consecutive
  epochs merge the same members, so batches whose membership is fixed
  (bucketing, ``shuffle=False``, ``batch_size=1``) are merged, and their
  message-passing plans built, once per fit;
* out of core, the items are :func:`tensorize_stream` over one pass of a
  :class:`~repro.datasets.sharded.ShardedDatasetReader`, tensorised in the
  producer thread, and nothing is memoised, so at any moment only

  - one window of tensorised samples (released member by member as they
    are merged), and
  - at most ``prefetch_depth`` merged batches (the queue bound) plus the
    one being merged and the one being trained on

  are live, independent of the dataset size.

Bucketing degrades gracefully to **per-window bucketing**: a streamed
window is planned exactly like the in-memory one, so a stream whose window
covers the dataset (``window_batches >= ceil(n / batch_size)``) is the
in-memory epoch — same batch membership, same RNG draws, same visit order
— which is what the bit-exact streamed-vs-in-memory equivalence tests pin
down.  Smaller windows bound memory at the cost of bucketing (and
shuffling) only within each window.

Integrity: the source iterable is typically a
:class:`~repro.datasets.sharded.ShardedDatasetReader`, which (by default)
verifies each shard's SHA-256 against the store manifest the first time the
shard is opened.  A corrupted shard therefore surfaces as a ``ValueError``
raised out of the producer thread and re-raised in the trainer on the next
batch request — streamed training never silently consumes damaged bytes.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.datasets.batching import merge_tensorized_samples, plan_batches
from repro.datasets.normalization import FeatureNormalizer
from repro.datasets.sample import Sample
from repro.datasets.tensorize import TensorizedSample, tensorize_sample

__all__ = ["BatchPrefetcher", "MergeMemo", "iter_window_batches", "tensorize_stream"]

#: Turns one batch's members into the merged batch.
Merge = Callable[[Sequence[TensorizedSample]], TensorizedSample]


def tensorize_stream(samples: Iterable[Sample], normalizer: FeatureNormalizer,
                     dtype=None) -> Iterator[TensorizedSample]:
    """:func:`~repro.datasets.tensorize.tensorize_sample` over ``samples``,
    one at a time, in whichever thread consumes the stream, so a streamed
    epoch never holds the tensorisations it has already merged."""
    for sample in samples:
        yield tensorize_sample(sample, normalizer, dtype=dtype)


class MergeMemo:
    """Merged batches keyed by the identity of their members, kept while
    consecutive epochs merge the same members in the same order.

    Only for items that outlive the fit's epochs (the in-memory source's
    tensorisations, held for the whole fit), so equal ids mean equal
    members.  An epoch looks its batches up among those the previous epoch
    used and keeps the ones it uses itself; call :meth:`end_epoch` between
    epochs.  Fixed membership therefore merges once per fit, while
    shuffled membership misses and the previous epoch's batches are
    dropped one epoch later.
    """

    def __init__(self) -> None:
        self._kept: Dict[tuple, TensorizedSample] = {}
        self._used: Dict[tuple, TensorizedSample] = {}

    def __call__(self, members: Sequence[TensorizedSample]) -> TensorizedSample:
        key = tuple(map(id, members))
        batch = self._kept.get(key)
        if batch is None:
            batch = merge_tensorized_samples(members)
        self._used[key] = batch
        return batch

    def end_epoch(self) -> int:
        """Keep this epoch's batches for the next one; return how many."""
        self._kept, self._used = self._used, {}
        return len(self._kept)


def iter_window_batches(items: Iterable[TensorizedSample],
                        batch_size: int,
                        bucket_by_length: bool = True,
                        window_batches: int = 64,
                        rng: Optional[np.random.Generator] = None,
                        merge: Optional[Merge] = None,
                        ) -> Iterator[TensorizedSample]:
    """Yield merged batches from a stream of tensorised items, one window
    at a time.

    This is the synchronous core of :class:`BatchPrefetcher` (exposed
    separately so it can be tested and reasoned about without threads).
    ``merge`` defaults to :func:`merge_tensorized_samples`.  Window members
    are released as soon as their batch is merged, so the peak is one
    window of items plus one merged batch.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if window_batches < 1:
        raise ValueError("window_batches must be at least 1")
    if merge is None:
        merge = merge_tensorized_samples
    window_size = window_batches * batch_size

    def flush(window: List[TensorizedSample]) -> Iterator[TensorizedSample]:
        plan = plan_batches([item.max_path_length for item in window], batch_size,
                            bucket_by_length=bucket_by_length, rng=rng)
        for members in plan:
            batch = merge([window[i] for i in members])
            # Release the members: a streamed window's slots are the only
            # references keeping them alive (the merge always copies).
            for i in members:
                window[i] = None
            yield batch

    window: List[TensorizedSample] = []
    for item in items:
        window.append(item)
        if len(window) >= window_size:
            yield from flush(window)
            window = []
    if window:
        yield from flush(window)


class BatchPrefetcher:
    """Background thread producing merged batches ``prefetch_depth`` ahead.

    Iterate over the prefetcher to consume one epoch's batches, merged from
    ``items`` by :func:`iter_window_batches`; the producer thread stays at
    most ``prefetch_depth`` merged batches ahead of the consumer (the queue
    bound provides backpressure).  Exceptions raised while reading,
    tensorising or merging propagate to the consumer **promptly**: the next
    ``__next__`` after the producer dies re-raises the producer's error
    (after joining the thread), even when intact batches are still queued
    ahead of it — a failed epoch surfaces at the next step, not after the
    queue drains.  :meth:`close` stops the producer early (idempotent; also
    called automatically when the stream is exhausted), and **must** be
    called before the owner reuses the RNG, since the producer draws from
    it.  Use the prefetcher as a context manager so that a consumer raising
    mid-epoch still stops, drains and joins the producer thread on the way
    out (``__exit__`` calls :meth:`close`).

    ``peak_live_batches`` records the highest number of merged batches that
    were simultaneously materialised (queued or in flight, plus the one the
    consumer holds) — the number the trainer logs per streamed epoch so a
    regression back to O(dataset) behaviour is visible without profiling.
    ``peak_live_bytes`` is the same high-water mark in array bytes
    (:attr:`TensorizedSample.nbytes` of the live batches).
    """

    _DONE = object()

    def __init__(self, items: Iterable[TensorizedSample],
                 batch_size: int,
                 bucket_by_length: bool = True,
                 window_batches: int = 64,
                 rng: Optional[np.random.Generator] = None,
                 prefetch_depth: int = 2,
                 merge: Optional[Merge] = None) -> None:
        if prefetch_depth < 1:
            raise ValueError("prefetch_depth must be at least 1")
        self.prefetch_depth = prefetch_depth
        self._queue: "queue.Queue" = queue.Queue(maxsize=prefetch_depth)
        self._stop = threading.Event()
        self._error: Optional[BaseException] = None
        self._live = 0
        self._live_bytes = 0
        self._live_lock = threading.Lock()
        self.peak_live_batches = 0
        self.peak_live_bytes = 0
        self._source = iter_window_batches(
            self._stop_aware(items), batch_size, bucket_by_length=bucket_by_length,
            window_batches=window_batches, rng=rng, merge=merge)
        self._thread = threading.Thread(target=self._produce,
                                        name="batch-prefetcher", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------ #
    def _stop_aware(self, items: Iterable[TensorizedSample]) -> Iterator[TensorizedSample]:
        """Wrap the item source so a close() is noticed between items, not
        only between queue puts — one item's work (its tensorisation, when
        streamed) bounds how long the producer can keep running (and
        drawing from the RNG) after close."""
        for item in items:
            if self._stop.is_set():
                return
            yield item

    def _track(self, delta: int, nbytes: int) -> None:
        with self._live_lock:
            self._live += delta
            self._live_bytes += delta * nbytes
            # +1 batch (and its bytes) accounts for the one the consumer is
            # training on (it releases the previous when fetching the next).
            self.peak_live_batches = max(self.peak_live_batches, self._live + 1)
            self.peak_live_bytes = max(self.peak_live_bytes,
                                       self._live_bytes + nbytes)

    def _put(self, item) -> bool:
        """Blocking put that gives up when :meth:`close` was called."""
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.1)
                return True
            except queue.Full:
                continue
        return False

    def _produce(self) -> None:
        try:
            for batch in self._source:
                if self._stop.is_set():
                    return
                self._track(+1, batch.nbytes)
                if not self._put(batch):
                    self._track(-1, batch.nbytes)
                    return
        except BaseException as error:  # noqa: BLE001 - forwarded to consumer
            self._error = error
            self._put(self._DONE)
            return
        self._put(self._DONE)

    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[TensorizedSample]:
        return self

    def __next__(self) -> TensorizedSample:
        if self._stop.is_set():
            raise StopIteration
        if self._error is not None:
            # The producer died while batches it queued earlier were still
            # pending: surface the failure now instead of handing out the
            # rest of a partial epoch first.
            self._finish_with_error()
        item = self._queue.get()
        if item is self._DONE:
            self._stop.set()
            self._thread.join()
            if self._error is not None:
                raise self._error
            raise StopIteration
        self._track(-1, item.nbytes)
        return item

    def _finish_with_error(self) -> None:
        """Stop, drain and join the producer, then re-raise its error."""
        error = self._error
        self.close()
        raise error

    def close(self) -> None:
        """Stop the producer and release queued batches (idempotent).

        Blocks until the producer thread has actually exited (bounded by at
        most one sample's tensorisation plus one window flush), so after
        ``close()`` returns nothing can touch the shared RNG concurrently
        with the caller.  Note the RNG *position* after an early-terminated
        epoch still depends on how far ahead the producer got — callers
        that need cross-run reproducibility after an abandoned epoch should
        restore the RNG state (e.g. via a trainer checkpoint) rather than
        continue from it.
        """
        self._stop.set()
        while True:
            # Drain so a producer blocked on a full queue can observe the
            # stop; loop because it may complete one more put per drain.
            while True:
                try:
                    self._queue.get_nowait()
                except queue.Empty:
                    break
            self._thread.join(timeout=0.1)
            if not self._thread.is_alive():
                break

    def __enter__(self) -> "BatchPrefetcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
