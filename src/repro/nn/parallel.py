"""Multiprocess data-parallel gradient computation over merged batches.

The per-step Python loop — building the autograd graph, running the RNN
scan, the backward pass — is the training bottleneck once memory is under
control (see ROADMAP).  This module parallelises it across batches with a
persistent pool of worker *processes*: each worker holds a full model
replica, the parent broadcasts the current parameters, every worker runs
forward + backward on one merged batch and returns
``(flat_gradient, loss, num_paths)``, and the parent path-weight-averages
the gradients and takes a single optimiser step.

Synchronous data-parallel semantics
-----------------------------------
One optimiser step consumes a *group* of up to ``num_workers`` batches; the
group gradient is the **path-weighted average** of the per-batch gradients

``g = sum_i(num_paths_i * g_i) / sum_i(num_paths_i)``

— the same weighting :meth:`repro.models.trainer.RouteNetTrainer.evaluate_loss`
applies to losses, so the group gradient equals the gradient of the mean
per-path loss over all paths in the group, exactly as if the group had been
merged into one giant disjoint-union batch.  The update rule therefore
depends only on ``num_workers`` (the group size), not on which engine runs
the members: :class:`SerialGradientExecutor` executes the identical
semantics in-process, and the equivalence tests hold the two engines to
bit-identical parameter trajectories.

Shared-memory parameter broadcast
---------------------------------
Parameters travel through one flat buffer in shared memory allocated at
pool start: per group the parent writes the current parameter vector into
it (one memcpy, instead of pickling the vector once per worker through a
pipe) and each step message carries only a batch reference.  The parent
publishes only while no group is in flight, and a group counts as in
flight until every one of its replies is in, so no worker ever reads the
buffer while it is rewritten.  That is enough for the trainer's
``overlap`` mode, where the parent submits the next group
(:meth:`GradientWorkerPool.submit_group`) the moment its optimiser step
finishes and only then does its per-epoch bookkeeping, validation pass and
checkpoint write while the workers are already computing
(:meth:`collect_group` picks the results up later).  Overlap never changes
*what* is computed — submitted parameters are always the fully-updated
post-step vector — so overlapped and non-overlapped runs are
bit-identical.

Batches reach workers one of two ways: :meth:`set_batches` uploads a list
once and steps reference batches by index (the in-memory trainer, whose
pre-merged batches are reused every epoch), or
:meth:`submit_group_payload` ships the merged batches inside the step
messages (the streaming trainer, whose batches exist only transiently).

Fault tolerance
---------------
The workers run on a :class:`repro.supervision.Farm`: a worker that dies
or exceeds its per-task timeout is reaped and an identical replacement is
spawned from the same pickled payload and shared parameter buffer; the
pool then re-uploads its batch cache and re-sends, in order, every message
the lost worker had not answered.  The parameters are not rewritten while
those messages are outstanding, so the replacement recomputes exactly the
same gradients — a recovered run is **bit-identical** to a fault-free one.
Respawns draw on a bounded restart budget so a crash-looping farm fails
loudly instead of spinning.  Ordinary in-task exceptions are *not*
retried: once the rest of the group is in, they re-raise the worker's
traceback in the parent (a deterministic Python error would only fail
again), and the pool keeps serving.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.losses import huber_loss, mse_loss
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.supervision import Farm, Lost, SupervisionPolicy
from repro.testing.faults import fault_point

__all__ = [
    "GradientWorkerPool",
    "SerialGradientExecutor",
    "make_gradient_executor",
    "path_weighted_average",
]

#: Result of one worker task: (flat gradient, scalar loss, paths in batch).
GradientResult = Tuple[np.ndarray, float, int]


def path_weighted_average(vectors: Sequence[np.ndarray],
                          weights: Sequence[int]) -> np.ndarray:
    """Average flat gradient vectors weighted by their batch's path count.

    ``sum_i(w_i * v_i) / sum_i(w_i)`` with ``w_i`` the number of paths in
    batch ``i`` — the weighting that makes a group of batches equivalent to
    one merged batch containing all their paths (each per-batch loss is
    already the *mean* over that batch's paths, so recombining means needs
    the path counts back).  Matches the loss weighting of
    ``RouteNetTrainer.evaluate_loss``.

    A single-element group returns its vector unchanged (bit-exact with the
    one-batch-per-step serial path).  The accumulation preserves the input
    dtype: float32 gradients are averaged in float32.
    """
    if len(vectors) != len(weights):
        raise ValueError("one weight per gradient vector is required")
    if not vectors:
        raise ValueError("cannot average an empty group of gradients")
    if len(vectors) == 1:
        return np.asarray(vectors[0])
    total = float(sum(weights))
    accumulated = np.zeros_like(np.asarray(vectors[0]))
    for vector, weight in zip(vectors, weights):
        accumulated += np.asarray(vector) * (float(weight) / total)
    return accumulated


def _compute_gradient(model: Module, batch, loss_name: str) -> GradientResult:
    """Forward + backward on one batch; the single compute kernel every
    execution engine (worker process or serial executor) runs, so their
    results are bit-identical for identical parameters and batch."""
    model.zero_grad()
    predictions = model(batch)
    targets = Tensor(np.asarray(batch.targets, dtype=predictions.data.dtype))
    if loss_name == "huber":
        loss = huber_loss(predictions, targets)
    elif loss_name == "mse":
        loss = mse_loss(predictions, targets)
    else:
        raise ValueError(f"unknown loss '{loss_name}'")
    loss.backward()
    return model.gradients_vector(), float(loss.item()), int(batch.num_paths)


def _replicate(model: Module) -> Module:
    """A fresh replica via a pickle round-trip (bit-identical parameters)."""
    return pickle.loads(pickle.dumps(model))


class _GradientWorker:
    """Worker side of :class:`GradientWorkerPool`: a model replica that
    answers the pool's messages.

    Messages:
      ``("batches", [TensorizedSample, ...])``  replace the cached batches;
      ``("step", position, batch_index)``       compute on a cached batch;
      ``("step_payload", position, batch)``     compute on a shipped batch.
    Steps read the parameters from the pool's shared-memory buffer and
    answer ``(flat_gradient, loss, num_paths)``; ``position`` is the
    member's place in its group, for the parent.
    """

    def __init__(self, rank: int, payload: bytes, param_buffer,
                 param_dtype: str, param_count: int) -> None:
        self.rank = rank
        self.model, self.loss_name = pickle.loads(payload)
        self.params = np.frombuffer(param_buffer, dtype=param_dtype,
                                    count=param_count)
        self.batches: list = []
        self.steps_handled = 0

    def __call__(self, message: tuple):
        if message[0] == "batches":
            self.batches = list(message[1])
            return len(self.batches)
        kind, _, work = message
        fault_point("pool.step.start", rank=self.rank, step=self.steps_handled)
        self.steps_handled += 1
        # load_parameters_vector copies per parameter, so nothing in the
        # model aliases the shared buffer the parent rewrites next group.
        self.model.load_parameters_vector(self.params)
        batch = self.batches[work] if kind == "step" else work
        return _compute_gradient(self.model, batch, self.loss_name)


class _ExecutorBase:
    """Shared bookkeeping for both execution engines.

    Both engines expose the same two-phase interface: :meth:`submit_group`
    / :meth:`submit_group_payload` hand a group of work out (at most one
    group in flight), :meth:`collect_group` returns its results.  The
    one-shot :meth:`run_group` wrapper keeps the synchronous call style.
    """

    def __init__(self) -> None:
        self._uploaded_ids: Optional[tuple] = None
        self._in_flight: Optional[int] = None

    def set_batches(self, batches: Sequence) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def ensure_batches(self, batches: Sequence) -> None:
        """Upload ``batches`` unless the identical list is already cached.

        Identity (not equality) is the right key: pre-merged static batches
        are the same objects every epoch, so the upload happens once per
        ``fit``; per-epoch re-merged batches are fresh objects and re-upload.
        """
        ids = tuple(id(batch) for batch in batches)
        if ids != self._uploaded_ids:
            self.set_batches(batches)
            self._uploaded_ids = ids

    # ------------------------------------------------------------------ #
    def _check_idle(self) -> None:
        if self._in_flight is not None:
            raise RuntimeError(
                "a group is already in flight; collect_group() it first")

    def submit_group(self, flat_params: np.ndarray,
                     indices: Sequence[int]) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def submit_group_payload(self, flat_params: np.ndarray,
                             batches: Sequence) -> None:  # pragma: no cover
        raise NotImplementedError

    def collect_group(self) -> List[GradientResult]:  # pragma: no cover - abstract
        raise NotImplementedError

    def run_group(self, flat_params: np.ndarray,
                  indices: Sequence[int]) -> List[GradientResult]:
        """Synchronous submit + collect over cached-batch indices."""
        self.submit_group(flat_params, indices)
        return self.collect_group()

    def close(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SerialGradientExecutor(_ExecutorBase):
    """In-process engine with the exact semantics of :class:`GradientWorkerPool`.

    Runs every group member sequentially on a pickle-round-tripped replica —
    no processes, no IPC — so ``num_workers > 1`` training can be executed
    (and debugged, and tested for bit-exact equivalence) on a single core.
    ``submit_group`` merely records the work; the compute happens at
    :meth:`collect_group`, which makes the engine a semantics twin of the
    pool under the trainer's overlap mode too (no wall-clock overlap, same
    parameter trajectory).
    """

    def __init__(self, model: Module, num_workers: int = 1, loss: str = "mse") -> None:
        super().__init__()
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_workers = num_workers
        self._loss_name = loss
        self._replica = _replicate(model)
        self._batches: list = []
        self._pending = None

    def set_batches(self, batches: Sequence) -> None:
        self._batches = list(batches)

    def submit_group(self, flat_params: np.ndarray,
                     indices: Sequence[int]) -> None:
        self._check_idle()
        self._pending = ("indices", list(indices), np.asarray(flat_params))
        self._in_flight = len(self._pending[1])

    def submit_group_payload(self, flat_params: np.ndarray,
                             batches: Sequence) -> None:
        self._check_idle()
        self._pending = ("payload", list(batches), np.asarray(flat_params))
        self._in_flight = len(self._pending[1])

    def collect_group(self) -> List[GradientResult]:
        if self._pending is None:
            raise RuntimeError("no group in flight")
        kind, members, flat_params = self._pending
        self._pending = None
        self._in_flight = None
        results = []
        for member in members:
            self._replica.load_parameters_vector(flat_params)
            batch = self._batches[member] if kind == "indices" else member
            results.append(_compute_gradient(self._replica, batch,
                                             self._loss_name))
        return results

    def close(self) -> None:
        self._batches = []
        self._pending = None
        self._in_flight = None


class GradientWorkerPool(_ExecutorBase):
    """A persistent pool of worker processes computing per-batch gradients.

    Each worker is started once with a pickled replica of ``model`` and kept
    alive for the executor's lifetime; a group then costs one shared-memory
    parameter publish plus one small step message per member, and one flat
    gradient back per member.  Workers cache an uploaded batch list (steps
    reference indices into it), or receive streaming batches inline via
    :meth:`submit_group_payload`.  The workers run on a
    :class:`~repro.supervision.Farm`, which replaces a dead or hung worker;
    the pool then re-uploads its batch cache and re-sends what was lost.

    Parameters
    ----------
    model:
        The module whose replicas the workers hold.  Must be picklable
        (every model in :mod:`repro.models` is).
    num_workers:
        Number of worker processes (≥ 1).
    loss:
        ``"mse"`` or ``"huber"`` — must match the trainer's loss.
    task_timeout:
        Seconds one gradient task may run before its worker is presumed
        hung, killed and respawned.  ``None`` (default) disables the
        timeout.
    """

    def __init__(self, model: Module, num_workers: int = 1, loss: str = "mse",
                 task_timeout: Optional[float] = None) -> None:
        super().__init__()
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_workers = num_workers
        # The broadcast buffer: one flat parameter vector in shared memory,
        # rewritten only while no group is in flight (see the module
        # docstring).
        template = model.parameters_vector()
        self._param_dtype = template.dtype
        self._param_count = int(template.size)
        self._param_buffer = mp.RawArray(
            "b", max(1, self._param_count * self._param_dtype.itemsize))
        self._batches: Optional[list] = None
        # Start-up failures propagate (the trainer degrades to the serial
        # backend); the restart budget only covers later faults.
        self._farm = Farm(
            num_workers, _GradientWorker,
            (pickle.dumps((model, loss)), self._param_buffer,
             self._param_dtype.str, self._param_count),
            SupervisionPolicy(task_timeout=task_timeout),
            label="gradient worker")

    # ------------------------------------------------------------------ #
    def _drain(self) -> Dict[int, GradientResult]:
        """Wait until every sent message is answered; return the step
        results by group position.

        A lost worker's replacement gets the batch cache again and then
        the lost steps.  An in-task error is raised only once every reply
        is in, so no reply is left queued to be taken for the next group's.
        """
        results: Dict[int, GradientResult] = {}
        failure = None
        while self._farm.busy:
            for event in self._farm.wait():
                if isinstance(event, Lost):
                    if self._batches is not None:
                        self._farm.send(event.rank, ("batches", self._batches))
                    for message in event.messages:
                        if message[0] != "batches":
                            self._farm.send(event.rank, message)
                elif event.error is not None:
                    if failure is None:
                        failure = f"gradient worker {event.rank} failed:\n{event.error}"
                elif event.message[0] != "batches":
                    results[event.message[1]] = event.value
        if failure is not None:
            raise RuntimeError(failure)
        return results

    def set_batches(self, batches: Sequence) -> None:
        """Broadcast the batch list to every worker (replacing its cache)."""
        self._check_idle()
        self._batches = list(batches)
        for rank in range(self.num_workers):
            self._farm.send(rank, ("batches", self._batches))
        self._drain()

    def _submit(self, flat_params: np.ndarray, kind: str, members: list) -> None:
        self._check_idle()
        flat = np.asarray(flat_params, dtype=self._param_dtype).reshape(-1)
        if flat.size != self._param_count:
            raise ValueError(
                f"expected a flat vector of {self._param_count} parameters, "
                f"got {flat.size}")
        np.frombuffer(self._param_buffer, dtype=self._param_dtype,
                      count=self._param_count)[:] = flat
        for position, member in enumerate(members):
            self._farm.send(position % self.num_workers, (kind, position, member))
        self._in_flight = len(members)

    def submit_group(self, flat_params: np.ndarray,
                     indices: Sequence[int]) -> None:
        """Dispatch a group of cached-batch indices (round-robin) and return
        immediately; :meth:`collect_group` gathers the gradients.  The
        parameters are published to shared memory *now*, so the caller may
        keep mutating its own model afterwards."""
        self._submit(flat_params, "step", [int(i) for i in indices])

    def submit_group_payload(self, flat_params: np.ndarray,
                             batches: Sequence) -> None:
        """Dispatch a group of batches shipped inside the step messages —
        the streaming-trainer path, where batches are transient and never
        uploaded as a cached list."""
        self._submit(flat_params, "step_payload", list(batches))

    def collect_group(self) -> List[GradientResult]:
        """Gather the in-flight group's results, in submission order
        regardless of which worker finishes first, so downstream averaging
        is deterministic."""
        if self._in_flight is None:
            raise RuntimeError("no group in flight")
        count = self._in_flight
        self._in_flight = None
        results = self._drain()
        return [results[position] for position in range(count)]

    @property
    def restarts(self) -> int:
        """Total worker respawns this pool has performed (telemetry)."""
        return self._farm.restarts

    def close(self) -> None:
        """Shut the workers down (best effort, safe to call repeatedly)."""
        self._farm.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown path
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass


def make_gradient_executor(model: Module, num_workers: int, loss: str = "mse",
                           backend: str = "process",
                           task_timeout: Optional[float] = None):
    """Build the gradient execution engine for data-parallel training.

    ``backend="process"`` returns a :class:`GradientWorkerPool`;
    ``backend="serial"`` returns a :class:`SerialGradientExecutor` with
    identical update semantics (useful on single-core machines and for the
    bit-exact process-vs-serial equivalence tests).  ``task_timeout``
    bounds one gradient task's wall time on the process backend (a hung
    worker is killed and respawned); the serial backend ignores it.
    """
    if backend == "process":
        return GradientWorkerPool(model, num_workers, loss=loss,
                                  task_timeout=task_timeout)
    if backend == "serial":
        return SerialGradientExecutor(model, num_workers, loss=loss)
    raise ValueError(f"unknown parallel backend '{backend}' (use 'process' or 'serial')")
