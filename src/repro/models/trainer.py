"""Supervised training and evaluation of RouteNet-family models on datasets."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import time
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.batching import make_batches
from repro.datasets.normalization import FeatureNormalizer
from repro.datasets.prefetch import BatchPrefetcher, MergeMemo, tensorize_stream
from repro.datasets.sample import Sample
from repro.datasets.sharded import ShardedDatasetReader, is_sharded_store
from repro.datasets.tensorize import TensorizedSample, tensorize_sample
from repro.nn import metrics as nn_metrics
from repro.nn.losses import mse_loss
from repro.nn.module import Module
from repro.nn.optimizers import Adam, clip_gradients_by_norm
from repro.nn.parallel import _backward, make_gradient_executor, path_weighted_average
from repro.nn.tensor import DTypeLike, Tensor, no_grad, resolve_dtype
from repro.nn.training import EarlyStopping, History

__all__ = ["TrainerConfig", "RouteNetTrainer", "evaluate_model"]


@dataclasses.dataclass
class TrainerConfig:
    """Hyper-parameters of RouteNet training.

    Training minimises the mean squared error of the normalised per-path
    delays (the one target, as in the paper) with Adam at a constant
    ``learning_rate``.

    ``dtype`` selects the floating precision the samples are tensorised at
    ("float32", "float64" or ``None`` for the process default).  It should
    match the model's :attr:`~repro.models.config.RouteNetConfig.dtype`;
    float32 roughly halves the memory traffic of backward on large merged
    batches.

    ``batch_size`` controls mini-batching: each optimisation step merges that
    many scenarios into one disjoint-union graph (see
    :mod:`repro.datasets.batching`), amortising the per-step Python and
    autograd overhead — the same trick the reference TensorFlow
    implementation plays with ``tf.data`` batching.  ``1`` keeps the
    historical one-scenario-per-step optimisation (identical parameter
    updates and shuffling to the unbatched trainer); note that the epoch
    losses recorded in ``History`` are now always weighted by each item's
    path count, so on datasets with unequal path counts per scenario the
    *reported* loss is the per-path mean rather than the per-scenario mean.

    ``bucket_by_length`` (default on, only meaningful with
    ``batch_size > 1``) groups scenarios of similar maximum path length into
    the same merged batch, the ``tf.data`` bucketing trick of the reference
    implementation: padded tails shrink, so the RNN scan's no-masking fast
    path dominates.  Because bucketing fixes batch membership, an in-memory
    fit merges each batch (and builds its message-passing indices) **once**,
    in its first epoch; ``shuffle`` then only permutes the order the merged
    batches are visited in.  Turn it off to recover the per-epoch
    shuffle-and-merge of arbitrary scenario mixes.

    ``num_workers`` sets the group size of synchronous data-parallel
    training (see :mod:`repro.nn.parallel`): each optimisation step
    consumes a *group* of up to ``num_workers`` batches, a persistent pool
    of worker processes computes their gradients concurrently on model
    replicas, and the trainer path-weight-averages them before a single
    optimiser step.  ``1`` (the default) is the group of one: one batch
    per step, computed in the trainer's own process.  Note the group size is part
    of the update semantics: a ``num_workers=4`` run takes 4x fewer,
    smoother optimiser steps per epoch than a ``num_workers=1`` run over
    the same batches (exactly like increasing the world size of
    distributed data-parallel training).  Each group step is synchronous:
    broadcast the parameters, compute the members' gradients, average
    them, take the optimiser step.  The pool's parallelism is its workers,
    so each worker runs NumPy's OpenBLAS on one thread (no setting; on a
    BLAS without the OpenBLAS thread API the workers keep the library's
    default); the parent keeps NumPy's default.

    When the pool cannot start at all, ``fit`` warns and computes every
    group's gradients in-process instead (the same kernel on the same
    parameters, so the same trajectory bit for bit, without the speed-up)
    rather than failing the run; a worker that dies or hangs *mid-run* is
    respawned by the pool itself and its work re-dispatched bit-identically
    (see :mod:`repro.supervision`).  ``task_timeout`` bounds one gradient
    task's wall time in the pool — a worker exceeding it is presumed hung,
    killed and respawned; ``None`` (default) disables the bound.

    ``prefetch_depth`` bounds how many merged batches each epoch's producer
    thread queues ahead of the training step, for either data source of
    :meth:`RouteNetTrainer.fit`.  ``stream_window`` shapes the out-of-core
    path (``fit(dataset_path=...)`` over a sharded store): the thread
    reads, tensorises and merges batches, bucketing/shuffling within
    windows of ``stream_window`` batches, so an epoch holds
    O(stream_window · batch_size) tensorised samples plus
    O(prefetch_depth) merged batches instead of the whole dataset.  An
    in-memory fit is the case of one window covering the dataset, so a
    streamed run with ``stream_window >= ceil(n / batch_size)`` is
    bit-identical to the in-memory one; smaller windows bound memory and
    bucket/shuffle per window instead.
    """

    epochs: int = 20
    learning_rate: float = 0.001
    gradient_clip_norm: float = 1.0
    shuffle: bool = True
    batch_size: int = 1
    bucket_by_length: bool = True
    dtype: Optional[str] = None
    early_stopping_patience: Optional[int] = None
    num_workers: int = 1
    task_timeout: Optional[float] = None
    prefetch_depth: int = 2
    stream_window: int = 64
    seed: int = 0
    log_every: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.gradient_clip_norm < 0:
            raise ValueError("gradient_clip_norm must be non-negative")
        if self.early_stopping_patience is not None and self.early_stopping_patience < 1:
            # 0 used to silently disable early stopping while EarlyStopping
            # itself rejects patience <= 0; make the contract explicit:
            # None disables, any integer >= 1 enables.
            raise ValueError("early_stopping_patience must be None or at least 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be at least 1")
        if self.stream_window < 1:
            raise ValueError("stream_window must be at least 1")
        resolve_dtype(self.dtype)  # raises on anything but float32/float64/None


class RouteNetTrainer:
    """Trains a RouteNet-family model on lists of :class:`Sample` objects.

    The trainer owns the :class:`FeatureNormalizer` (fitted on the training
    set) and the tensorisation step, so user code deals only with samples.
    """

    def __init__(self, model: Module, config: Optional[TrainerConfig] = None,
                 normalizer: Optional[FeatureNormalizer] = None) -> None:
        self.model = model
        self.config = config if config is not None else TrainerConfig()
        self.normalizer = normalizer
        self.optimizer = Adam(model.parameters(), learning_rate=self.config.learning_rate)
        self.history = History()
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------ #
    def prepare(self, samples: Sequence[Sample]) -> List[TensorizedSample]:
        """Tensorise samples with the trainer's normaliser (fitting it on
        ``samples`` if the trainer has none) at ``config.dtype``: one
        :func:`~repro.datasets.tensorize.tensorize_sample` call each."""
        if self.normalizer is None:
            self.normalizer = FeatureNormalizer().fit(samples)
        return [tensorize_sample(sample, self.normalizer, dtype=self.config.dtype)
                for sample in samples]

    # ------------------------------------------------------------------ #
    def train_step(self, batch: TensorizedSample) -> float:
        """One optimisation step on one tensorised (possibly merged) batch,
        computed in-process: the group of one.  Returns its loss."""
        (loss,), _ = self._train_group(None, [batch])
        return loss

    def _update(self, losses: Sequence[float]) -> None:
        """The tail of every step: clip the gradient in place, refuse a
        non-finite update, take the optimiser step.

        ``clip_gradients_by_norm`` returns the pre-clip norm (and scales
        nothing when ``gradient_clip_norm`` is 0).  A NaN or infinite loss
        or norm raises :class:`FloatingPointError` *before* the optimiser
        step, so the parameters, the optimiser moments and every
        checkpoint stay finite.
        """
        norm = clip_gradients_by_norm(self.model.parameters(),
                                      self.config.gradient_clip_norm)
        if not (np.isfinite(losses).all() and np.isfinite(norm)):
            raise FloatingPointError(
                f"non-finite update refused: per-batch loss {[float(v) for v in losses]}, "
                f"gradient norm {norm}")
        self.optimizer.step()

    def evaluate_loss(self, samples: Sequence[TensorizedSample]) -> float:
        """Per-path average loss over tensorised samples, without updates.

        Each item's loss is weighted by its ``num_paths``, so the result is
        the mean over *paths* regardless of how the paths are grouped into
        items — evaluating merged batches of unequal sizes gives the same
        number as evaluating the constituent samples one by one.
        """
        if not samples:
            raise ValueError("evaluate_loss needs at least one sample")
        total = 0.0
        weight = 0
        with no_grad():
            for sample in samples:
                predictions = self.model(sample)
                # Targets join at the predictions' precision, so a float32
                # model is not promoted back to float64 by the loss.
                targets = Tensor(np.asarray(sample.targets,
                                            dtype=predictions.data.dtype))
                loss = float(mse_loss(predictions, targets).item())
                total += loss * sample.num_paths
                weight += sample.num_paths
        return total / weight

    def _train_group(self, pool, batches: List[TensorizedSample],
                     ) -> Tuple[List[float], List[int]]:
        """One synchronous step over a group of batches: the one step
        :meth:`fit` takes.

        With a ``pool`` (a :class:`~repro.nn.parallel.GradientWorkerPool`)
        the current parameters are broadcast and each batch travels to a
        worker inside its step message; with ``pool=None`` the trainer runs
        the workers' kernel on its own model, member by member.  The
        members' **path-weighted average** gradient ``sum_i(num_paths_i *
        g_i) / sum_i(num_paths_i)`` is the weighting :meth:`evaluate_loss`
        applies to losses, so the update equals the gradient of the mean
        per-path loss over every path in the group, exactly as if the group
        had been merged into one giant batch; a group of one steps on its
        batch's own gradient.  Clipping and the optimiser step then run
        once on the averaged gradient.

        Returns the per-batch losses and path counts (for epoch-loss
        weighting).
        """
        if pool is None:
            # ``graph`` (the last member's loss) keeps its autograd graph
            # alive until the optimiser step is taken, as a plain training
            # loop does.  Freed before the step, the graph sits at the top
            # of the heap, glibc trims it there every step, and the next
            # step faults its pages back in: 5-7x the minor page faults and
            # about 8% of ``train``'s samples/s on a 2-CPU host.
            results = []
            for batch in batches:
                graph = _backward(self.model, batch)
                results.append((self.model.gradients_vector(), float(graph.item()),
                                int(batch.num_paths)))
        else:
            pool.submit_group_payload(self.model.parameters_vector(), batches)
            results = pool.collect_group()
        losses = [r[1] for r in results]
        weights = [r[2] for r in results]
        self.model.load_gradients_vector(
            path_weighted_average([r[0] for r in results], weights))
        self._update(losses)
        return losses, weights

    def fit(self, train_samples: Optional[Sequence[Sample]] = None,
            val_samples: Optional[Sequence[Sample]] = None,
            checkpoint_path: Optional[str] = None,
            dataset_path: Optional[str] = None) -> History:
        """Train for ``config.epochs`` *additional* epochs; return the history.

        Training data comes from exactly one of two sources, and an empty
        one raises :class:`ValueError` before the first epoch.  Either way
        every epoch is one :class:`~repro.datasets.prefetch.BatchPrefetcher`
        stream, which plans, merges and queues the epoch's batches in a
        producer thread:

        * ``train_samples`` — the in-memory path: every sample is tensorised
          once, before the first epoch, and one window covers the dataset.
          Merged batches are kept while consecutive epochs reuse them, so
          with fixed batch membership (bucketing, ``shuffle=False`` or
          ``batch_size=1``) each batch is merged, and its message-passing
          plan built, once per fit.
        * ``dataset_path`` — the **out-of-core** path: the path of a sharded
          dataset store (see :mod:`repro.datasets.sharded`), tensorised in
          the producer thread as it is read, so only
          ``config.stream_window`` batches' worth of tensorised samples
          plus ``config.prefetch_depth`` merged batches are ever live.  The
          trainer's normaliser comes from the store's manifest (or, failing
          that, one streaming fit pass).  With ``stream_window`` covering
          the whole dataset the streamed run is bit-identical to the
          in-memory one.

        ``checkpoint_path`` (optional) makes the run interruption-safe: a
        full checkpoint (see :meth:`save_checkpoint`) is rewritten after
        every epoch, so a killed run can be resumed from its last completed
        epoch with :meth:`load_checkpoint`.

        On a fresh trainer this trains epochs ``1..epochs`` exactly as
        before.  On a trainer restored with :meth:`load_checkpoint` (or one
        that already trained), epoch numbering continues where the recorded
        history left off, so a run that checkpoints after ``k`` epochs and
        resumes for ``N - k`` produces the same history (and, with identical
        data and config, bit-identical parameters) as an uninterrupted
        ``N``-epoch run.  Early stopping state is *not* carried across fits
        — each call starts a fresh patience window.

        Every step is one synchronous group of up to ``config.num_workers``
        consecutive batches (see :meth:`_train_group`).  With
        ``num_workers > 1`` a multiprocessing worker pool, alive for the
        duration of this call, computes the members' gradients; otherwise,
        or when the pool fails to start, the trainer computes them itself.

        A step whose loss or gradient norm is NaN or infinite raises
        :class:`FloatingPointError` naming the epoch and the batch (or
        group) index, before its optimiser step: the model keeps the
        parameters of the last finite step, and the checkpoint on disk is
        the one of the last completed epoch.

        Every epoch records ``samples_per_sec`` and ``peak_live_batches``
        (for the in-memory path, the merged batches it keeps) into the
        history, so streaming-vs-in-memory throughput and memory
        regressions show up without the benchmark suite.
        """
        if (train_samples is None) == (dataset_path is None):
            raise ValueError(
                "fit() needs exactly one data source: train_samples (in-memory) "
                "or dataset_path (streamed from a sharded store)")
        reader = None
        if dataset_path is not None:
            if not is_sharded_store(dataset_path):
                raise ValueError(
                    f"'{dataset_path}' is not a sharded dataset store; "
                    "out-of-core training streams shards — write one with "
                    "save_dataset(), a ShardedDatasetWriter or 'python -m "
                    "repro.cli generate', or load_dataset() it and pass train_samples "
                    "instead")
            reader = ShardedDatasetReader(dataset_path)
            source, samples_per_epoch = f"dataset store '{dataset_path}'", len(reader)
        else:
            source, samples_per_epoch = "train_samples", len(train_samples)
        if samples_per_epoch == 0:
            raise ValueError(f"{source} is empty: fit() has nothing to train on")
        if reader is not None:
            if self.normalizer is None:
                # Prefer the store's recorded statistics; otherwise fit by
                # streaming over the store once (O(1) samples live).
                self.normalizer = (reader.normalizer
                                   or FeatureNormalizer().fit(reader))
            memo, window = None, self.config.stream_window
        else:
            train_items = self.prepare(train_samples)
            memo, window = MergeMemo(), len(train_items)
        val_items = self.prepare(val_samples) if val_samples else None
        if val_items and self.config.batch_size > 1:
            # Merge validation scenarios once; the weighted evaluate_loss
            # makes the batched value identical to the per-sample one.
            val_items = make_batches(val_items, self.config.batch_size,
                                     bucket_by_length=self.config.bucket_by_length)
        stopper = (EarlyStopping(patience=self.config.early_stopping_patience, min_delta=1e-6)
                   if self.config.early_stopping_patience else None)

        pool = None
        if self.config.num_workers > 1:
            try:
                pool = make_gradient_executor(
                    self.model, self.config.num_workers,
                    task_timeout=self.config.task_timeout)
            except Exception as error:  # noqa: BLE001 - degrade, don't die
                # Pool start-up failure (fork refused, pipe limits, a worker
                # crashing in its handshake).  In-process groups compute
                # the identical parameter trajectory, just without the
                # wall-clock win — strictly better than failing the run.
                warnings.warn(
                    f"gradient worker pool failed to start ({error}); "
                    "falling back to in-process gradients (identical "
                    "results, no parallel speed-up)", RuntimeWarning,
                    stacklevel=2)
        unit = "batch" if self.config.num_workers == 1 else "group"

        start_epoch = self.history.epochs[-1] if self.history.epochs else 0
        try:
            for epoch in range(start_epoch + 1, start_epoch + self.config.epochs + 1):
                start = time.perf_counter()
                items = (train_items if reader is None else tensorize_stream(
                    reader, self.normalizer, dtype=self.config.dtype))
                losses, weights, number = [], [], 0
                # Leaving the block joins the producer, which draws from
                # self._rng, before anything else touches it.
                with BatchPrefetcher(items, self.config.batch_size,
                                     bucket_by_length=self.config.bucket_by_length,
                                     window_batches=window,
                                     rng=self._rng if self.config.shuffle else None,
                                     prefetch_depth=self.config.prefetch_depth,
                                     merge=memo) as batches:
                    # Consecutive groups of up to num_workers batches.
                    groups = iter(lambda: list(itertools.islice(
                        batches, self.config.num_workers)), [])
                    try:
                        for number, group in enumerate(groups):
                            group_losses, group_weights = self._train_group(pool, group)
                            losses.extend(group_losses)
                            weights.extend(group_weights)
                    except FloatingPointError as error:
                        raise FloatingPointError(
                            f"epoch {epoch}, {unit} {number}: {error}") from None
                train_loss = float(np.average(
                    np.asarray(losses),
                    weights=np.asarray(weights, dtype=np.float64)))
                val_loss = self.evaluate_loss(val_items) if val_items else None
                seconds = time.perf_counter() - start
                self.history.record(
                    epoch, train_loss, val_loss, seconds,
                    samples_per_sec=(samples_per_epoch / seconds
                                     if seconds > 0 else None),
                    peak_live_batches=(batches.peak_live_batches if memo is None
                                       else memo.end_epoch()))
                if checkpoint_path is not None:
                    self.save_checkpoint(checkpoint_path)

                if self.config.log_every and epoch % self.config.log_every == 0:
                    message = f"epoch {epoch:3d}  train={train_loss:.5f}"
                    if val_loss is not None:
                        message += f"  val={val_loss:.5f}"
                    print(message)

                if stopper is not None:
                    monitored = val_loss if val_loss is not None else train_loss
                    if stopper.update(monitored, epoch):
                        break
        finally:
            if pool is not None:
                pool.close()
        return self.history

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def save_checkpoint(self, path: str) -> str:
        """Write a full training checkpoint so a resumed run is *exact*.

        The checkpoint round-trips everything a bit-identical resume needs:
        model weights, the complete optimiser state (step count **and**
        moment buffers — Adam resumed with zeroed moments would apply its
        ``1/(1 - beta**step)`` bias correction to the wrong statistics),
        the fitted normaliser, the recorded history and the trainer's RNG
        state (so epoch shuffling continues the same stream).

        Format: a compressed ``.npz`` holding the arrays (``model.<name>``
        weights and ``optim.<buffer>.<i>`` optimiser moments) **and** the
        scalar state as an embedded JSON string (key ``meta.json``), so the
        archive's write-then-rename is the single atomic commit point — a
        crash between two file writes can never leave weights from one
        checkpoint paired with metadata from another.  A ``.json`` sidecar
        with the same metadata is still written afterwards as a
        human-readable mirror (and for pre-existing tooling), but loading
        never requires it.  Returns the ``.npz`` path written.
        """
        arrays: Dict[str, np.ndarray] = {
            f"model.{name}": value for name, value in self.model.state_dict().items()}
        optimizer_state = self.optimizer.state_dict()
        optimizer_meta: Dict[str, object] = {
            "class": type(self.optimizer).__name__,
            "step_count": int(optimizer_state.pop("step_count")),
            "buffers": {},
        }
        for key, buffers in optimizer_state.items():
            buffers = list(buffers)
            optimizer_meta["buffers"][key] = len(buffers)
            for index, buffer in enumerate(buffers):
                arrays[f"optim.{key}.{index:05d}"] = buffer
        metadata = {
            "format_version": 1,
            "model_class": type(self.model).__name__,
            "trainer_config": dataclasses.asdict(self.config),
            "optimizer": optimizer_meta,
            "normalizer": (self.normalizer.to_dict()
                           if self.normalizer is not None and self.normalizer.fitted
                           else None),
            "history": self.history.as_dict(),
            "rng_state": self._rng.bit_generator.state,
        }
        # Embedding the metadata in the archive (a 0-d unicode array) makes
        # the npz rename below the checkpoint's single commit point.
        arrays["meta.json"] = np.array(json.dumps(metadata, sort_keys=True))
        if not path.endswith(".npz"):
            path = path + ".npz"
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        # Write-then-rename so a run killed mid-save (the very interruption
        # scenario checkpoints exist for) never leaves a truncated archive
        # where the previous good checkpoint used to be.
        temporary = path + ".tmp.npz"  # .npz suffix keeps savez from renaming it
        np.savez_compressed(temporary, **arrays)
        os.replace(temporary, path)
        sidecar = path[: -len(".npz")] + ".json"
        with open(sidecar + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(metadata, handle, indent=2, sort_keys=True)
        os.replace(sidecar + ".tmp", sidecar)
        return path

    def load_checkpoint(self, path: str) -> dict:
        """Restore a checkpoint written by :meth:`save_checkpoint`.

        The trainer must have been constructed over the same model
        architecture and optimiser type; weights, optimiser moments
        (shape-checked against the current parameters), normaliser, history
        and RNG state are all restored, after which :meth:`fit` on the same
        data and config continues the interrupted run bit-exactly (epoch
        numbering picks up where the restored history ends).  Returns the
        checkpoint's metadata dictionary.
        """
        if not path.endswith(".npz"):
            path = path + ".npz"
        if not os.path.exists(path):
            raise FileNotFoundError(f"no trainer checkpoint at '{path}'")
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        if "meta.json" in arrays:
            metadata = json.loads(str(arrays.pop("meta.json")))
        else:
            # Checkpoints written before the metadata was embedded in the
            # archive keep their scalar state only in the sidecar.
            sidecar = path[: -len(".npz")] + ".json"
            if not os.path.exists(sidecar):
                raise FileNotFoundError(
                    f"checkpoint '{path}' predates embedded metadata and its "
                    ".json sidecar is missing")
            with open(sidecar, "r", encoding="utf-8") as handle:
                metadata = json.load(handle)
        if metadata.get("model_class") != type(self.model).__name__:
            raise ValueError(
                f"checkpoint was written for model '{metadata.get('model_class')}', "
                f"cannot load into '{type(self.model).__name__}'")
        optimizer_meta = metadata["optimizer"]
        if optimizer_meta["class"] != type(self.optimizer).__name__:
            raise ValueError(
                f"checkpoint was written for optimizer '{optimizer_meta['class']}', "
                f"cannot load into '{type(self.optimizer).__name__}'")
        # Settings that silently change what is being optimised must match;
        # epochs (each fit trains that many *more*), learning_rate (a
        # deliberate fine-tuning knob; the optimiser takes the current one),
        # task_timeout, prefetch_depth (a queue bound), seed (the restored
        # RNG state supersedes it) and log_every are free to differ, and
        # settings this version no longer has (``overlap``, a pipelining
        # switch, and ``parallel_backend``, an engine choice; neither ever
        # changed an update) are ignored.  stream_window must match because
        # it decides streamed batch membership.  ``loss`` and ``target`` are
        # no longer settings either, but they changed the objective: every
        # run now trains on the MSE of delay, so only a checkpoint that
        # recorded "mse" and "delay" resumes.
        saved_config = metadata.get("trainer_config", {})
        settings = dict(dataclasses.asdict(self.config), loss="mse", target="delay")
        mismatched = {
            field: (saved_config[field], settings[field])
            for field in ("loss", "target", "dtype", "batch_size",
                          "bucket_by_length", "shuffle", "gradient_clip_norm",
                          "num_workers", "stream_window")
            if field in saved_config and saved_config[field] != settings[field]
        }
        if mismatched:
            details = ", ".join(f"{field}: saved={saved!r} current={current!r}"
                                for field, (saved, current) in sorted(mismatched.items()))
            raise ValueError(
                f"checkpoint was written with a different training setup ({details}); "
                "resuming under it would silently optimise a different objective")
        model_state = {key[len("model."):]: value for key, value in arrays.items()
                       if key.startswith("model.")}
        self.model.load_state_dict(model_state)
        optimizer_state: Dict[str, object] = {
            "step_count": int(optimizer_meta["step_count"])}
        for key, count in optimizer_meta["buffers"].items():
            optimizer_state[key] = [arrays[f"optim.{key}.{index:05d}"]
                                    for index in range(int(count))]
        self.optimizer.load_state_dict(optimizer_state)
        if metadata.get("normalizer") is not None:
            self.normalizer = FeatureNormalizer.from_dict(metadata["normalizer"])
        self.history = History()
        recorded = metadata.get("history", {})
        epoch_count = len(recorded.get("epochs", []))
        # Throughput columns are absent from pre-PR-5 checkpoints.
        recorded_sps = recorded.get("samples_per_sec") or [None] * epoch_count
        recorded_peaks = recorded.get("peak_live_batches") or [None] * epoch_count
        for epoch, train_loss, val_loss, seconds, sps, peak in zip(
                recorded.get("epochs", []), recorded.get("train_loss", []),
                recorded.get("val_loss", []), recorded.get("epoch_seconds", []),
                recorded_sps, recorded_peaks):
            self.history.record(int(epoch), float(train_loss),
                                None if val_loss is None else float(val_loss),
                                float(seconds),
                                samples_per_sec=None if sps is None else float(sps),
                                peak_live_batches=None if peak is None else int(peak))
        if metadata.get("rng_state") is not None:
            self._rng.bit_generator.state = metadata["rng_state"]
        return metadata

    # ------------------------------------------------------------------ #
    def predict_delays(self, sample: Sample) -> np.ndarray:
        """Predict *denormalised* per-path delays (seconds) for one sample."""
        if self.normalizer is None:
            raise RuntimeError("trainer has no normalizer; call fit() or prepare() first")
        tensorized = tensorize_sample(sample, self.normalizer, dtype=self.config.dtype)
        return self.normalizer.denormalize("delay", self.model.predict(tensorized))


def evaluate_model(model: Module, samples: Sequence[Sample],
                   normalizer: FeatureNormalizer,
                   dtype: DTypeLike = None) -> Dict[str, object]:
    """Evaluate a trained model's delay predictions on samples, reporting
    paper-style metrics.

    Returns a dictionary with the concatenated per-path relative errors of
    the denormalised delays (``relative_errors``), their mean/median, MAPE,
    RMSE and Pearson correlation.  Each sample is tensorised once, at
    ``dtype``; metric arithmetic is always float64 regardless of the model
    precision.
    """
    if not samples:
        raise ValueError("evaluation needs at least one sample")
    all_predictions: List[np.ndarray] = []
    all_targets: List[np.ndarray] = []
    for sample in samples:
        tensorized = tensorize_sample(sample, normalizer, dtype=dtype)
        normalised = model.predict(tensorized)
        all_predictions.append(normalizer.denormalize("delay", normalised))
        all_targets.append(tensorized.raw_delays)
    predictions = np.concatenate(all_predictions)
    targets = np.concatenate(all_targets)
    errors = nn_metrics.relative_errors(predictions, targets)
    return {
        "relative_errors": errors,
        "mean_relative_error": float(np.abs(errors).mean()),
        "median_relative_error": float(np.median(np.abs(errors))),
        "mape_percent": nn_metrics.mean_absolute_percentage_error(predictions, targets),
        "rmse": nn_metrics.root_mean_squared_error(predictions, targets),
        "pearson": nn_metrics.pearson_correlation(predictions, targets),
        "num_paths": int(predictions.size),
    }
