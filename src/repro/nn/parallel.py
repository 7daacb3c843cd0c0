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
pipe) and each step message carries its merged batch but no parameters.
The parent publishes only while no group is in flight, and a group counts
as in flight until every one of its replies is in, so no worker ever
reads the buffer while it is rewritten.  The trainer's step is synchronous: it
submits a group (:meth:`GradientWorkerPool.submit_group_payload`),
collects it (:meth:`GradientWorkerPool.collect_group`) and takes its
optimiser step before it submits the next.

Batches reach workers one way: inside the step messages, whether the
trainer's epoch comes from memory or from a store.  Workers keep no batch
between steps, so none of them holds a copy of the dataset's merged
batches.  On a 2-CPU host, shipping a 2-sample float64 GEANT2 batch (1104
paths) costs about 0.4 ms of pickling, and about 1.9 ms with the worker's
rebuild of its message-passing plan, against about 163 ms of worker
compute per batch.

One BLAS thread per worker
--------------------------
The pool's parallelism is its processes.  A forked worker would inherit
NumPy's OpenBLAS with one thread per CPU, so ``N`` workers would run
``N`` times as many BLAS threads as there are cores; on a 2-CPU host one
batch's forward + backward then took 457 ms in a worker against 181 ms
serially.  Every worker, and every respawned replacement, therefore sets
its OpenBLAS to one thread when it starts (:func:`_limit_blas_threads`).
There is no setting for it: on one thread a worker's batch took 163 ms,
no longer than the parent's 168 ms on all of its BLAS threads.  On a
BLAS without the OpenBLAS thread API the workers keep the library's
default.  The parent is left alone, so the serial executor, validation,
``train`` and ``predict`` run as before.  The process==serial
bit-identity tests include a model and batch size at which the parent's
OpenBLAS does run several threads.

Fault tolerance
---------------
The workers run on a :class:`repro.supervision.Farm`: a worker that dies
or exceeds its per-task timeout is reaped and an identical replacement is
spawned from the same pickled payload and shared parameter buffer; the
pool then re-sends, in order, every message the lost worker had not
answered, each with its batch.  The parameters are not rewritten while
those messages are outstanding, so the replacement recomputes exactly the
same gradients — a recovered run is **bit-identical** to a fault-free one.
Respawns draw on a bounded restart budget so a crash-looping farm fails
loudly instead of spinning.  Ordinary in-task exceptions are *not*
retried: once the rest of the group is in, they re-raise the worker's
traceback in the parent (a deterministic Python error would only fail
again), and the pool keeps serving.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
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


#: OpenBLAS thread-count setters, tried in order: the ILP64 build NumPy's
#: wheels bundle, then the names of other OpenBLAS builds.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _openblas_paths() -> List[str]:
    """Paths of the OpenBLAS libraries mapped into this process; empty
    where ``/proc/self/maps`` does not exist."""
    try:
        with open("/proc/self/maps", "rb") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {os.fsdecode(parts[5].strip()) for parts in fields if len(parts) == 6}
    return sorted(path for path in paths
                  if "openblas" in os.path.basename(path).lower())


def _limit_blas_threads() -> None:
    """Run this process's OpenBLAS on one thread (see "One BLAS thread per
    worker" above).  Does nothing, and never raises, on any other BLAS or
    platform: a worker that failed to start would send ``fit`` to the
    serial backend."""
    for path in _openblas_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


class _GradientWorker:
    """Worker side of :class:`GradientWorkerPool`: a model replica that
    answers the pool's step messages.

    A step message is ``(position, batch)``: the worker reads the
    parameters from the pool's shared-memory buffer, computes on the
    shipped batch and answers ``(flat_gradient, loss, num_paths)``;
    ``position`` is the member's place in its group, for the parent.
    """

    def __init__(self, rank: int, payload: bytes, param_buffer,
                 param_dtype: str, param_count: int) -> None:
        _limit_blas_threads()
        self.rank = rank
        self.model, self.loss_name = pickle.loads(payload)
        self.params = np.frombuffer(param_buffer, dtype=param_dtype,
                                    count=param_count)
        self.steps_handled = 0

    def __call__(self, message: tuple):
        _, batch = message
        fault_point("pool.step.start", rank=self.rank, step=self.steps_handled)
        self.steps_handled += 1
        # load_parameters_vector copies per parameter, so nothing in the
        # model aliases the shared buffer the parent rewrites next group.
        self.model.load_parameters_vector(self.params)
        return _compute_gradient(self.model, batch, self.loss_name)


class _ExecutorBase:
    """Shared bookkeeping for both execution engines.

    Both engines expose the same two-phase interface:
    :meth:`submit_group_payload` hands a group of batches out (at most one
    group in flight), :meth:`collect_group` returns its results.
    """

    def __init__(self) -> None:
        self._in_flight: Optional[int] = None

    def _check_idle(self) -> None:
        if self._in_flight is not None:
            raise RuntimeError(
                "a group is already in flight; collect_group() it first")

    def submit_group_payload(self, flat_params: np.ndarray,
                             batches: Sequence) -> None:  # pragma: no cover
        raise NotImplementedError

    def collect_group(self) -> List[GradientResult]:  # pragma: no cover - abstract
        raise NotImplementedError

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
    :meth:`submit_group_payload` merely records the batches and the
    parameters; the compute happens at :meth:`collect_group`.
    """

    def __init__(self, model: Module, num_workers: int = 1, loss: str = "mse") -> None:
        super().__init__()
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_workers = num_workers
        self._loss_name = loss
        self._replica = _replicate(model)
        self._pending = None

    def submit_group_payload(self, flat_params: np.ndarray,
                             batches: Sequence) -> None:
        self._check_idle()
        self._pending = (list(batches), np.asarray(flat_params))
        self._in_flight = len(self._pending[0])

    def collect_group(self) -> List[GradientResult]:
        if self._pending is None:
            raise RuntimeError("no group in flight")
        batches, flat_params = self._pending
        self._pending = None
        self._in_flight = None
        results = []
        for batch in batches:
            self._replica.load_parameters_vector(flat_params)
            results.append(_compute_gradient(self._replica, batch,
                                             self._loss_name))
        return results

    def close(self) -> None:
        self._pending = None
        self._in_flight = None


class GradientWorkerPool(_ExecutorBase):
    """A persistent pool of worker processes computing per-batch gradients.

    Each worker is started once with a pickled replica of ``model`` and kept
    alive for the executor's lifetime; a group then costs one shared-memory
    parameter publish plus one step message per member, carrying its
    merged batch, and one flat gradient back per member.  The workers run
    on a :class:`~repro.supervision.Farm`, which replaces a dead or hung
    worker; the pool then re-sends what was lost.

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

        A lost worker's replacement gets the lost steps again.  An in-task
        error is raised only once every reply is in, so no reply is left
        queued to be taken for the next group's.
        """
        results: Dict[int, GradientResult] = {}
        failure = None
        while self._farm.busy:
            for event in self._farm.wait():
                if isinstance(event, Lost):
                    for message in event.messages:
                        self._farm.send(event.rank, message)
                elif event.error is not None:
                    if failure is None:
                        failure = f"gradient worker {event.rank} failed:\n{event.error}"
                else:
                    results[event.message[0]] = event.value
        if failure is not None:
            raise RuntimeError(failure)
        return results

    def submit_group_payload(self, flat_params: np.ndarray,
                             batches: Sequence) -> None:
        """Dispatch a group of batches, shipped inside the step messages
        (round-robin), and return immediately; :meth:`collect_group`
        gathers the gradients.  The parameters are published to shared
        memory *now*, so the caller may keep mutating its own model
        afterwards."""
        self._check_idle()
        flat = np.asarray(flat_params, dtype=self._param_dtype).reshape(-1)
        if flat.size != self._param_count:
            raise ValueError(
                f"expected a flat vector of {self._param_count} parameters, "
                f"got {flat.size}")
        np.frombuffer(self._param_buffer, dtype=self._param_dtype,
                      count=self._param_count)[:] = flat
        batches = list(batches)
        for position, batch in enumerate(batches):
            self._farm.send(position % self.num_workers, (position, batch))
        self._in_flight = len(batches)

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
