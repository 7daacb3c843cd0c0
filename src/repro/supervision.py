"""Shared worker-farm resilience layer: liveness, timeouts, respawn.

Both long-running process farms in this codebase — the gradient worker
pool of :mod:`repro.nn.parallel` and the dataset-factory farm of
:mod:`repro.datasets.factory` — run on one :class:`Farm`: a parent holds
one pipe per worker process, sends task messages and waits for replies,
and the farm keeps the workers alive through crashes and hangs.

* :class:`Farm` starts the workers from one entry point with a ready
  handshake, tracks every message sent until its reply arrives, waits on
  all workers at once under per-task deadlines, reaps and respawns a dead
  or hung worker, and hands that worker's unanswered messages back to the
  caller (:class:`Lost`) to re-send or re-queue.
* :class:`SupervisedWorker` wraps one (process, pipe) pair behind a
  ``spawn`` callable, so the worker can be **reaped and respawned** with
  identical start-up state after a crash.  A worker whose process has
  exited with no pending pipe data is dead; one that exceeds its task
  deadline is hung (and gets killed).
* :class:`RestartBudget` bounds how many respawns a farm may spend before
  giving up — a crash loop (e.g. the OOM killer reaping every replacement)
  must eventually surface as an error instead of burning CPU forever.
* :class:`SupervisionPolicy` carries the knobs (task timeout, per-task
  retry bound, restart budget, poll interval) through both farms and the
  CLI.

Determinism note: supervision never changes *what* is computed.  Both
farms re-dispatch exactly the work the dead worker held — the gradient
pool re-sends the same steps against the same shared parameters, the
factory re-queues the unit whose RNG stream is a pure function of its
index — so a recovered run is bit-identical to a fault-free one.
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing as mp
import multiprocessing.connection
import time
import traceback
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

__all__ = [
    "Farm",
    "Reply",
    "Lost",
    "SupervisionPolicy",
    "SupervisedWorker",
    "RestartBudget",
    "WorkerDied",
    "WorkerTimedOut",
    "RestartBudgetExceeded",
]


class WorkerDied(RuntimeError):
    """A worker process exited (or its pipe broke) with work outstanding."""


class WorkerTimedOut(RuntimeError):
    """A worker exceeded its per-task deadline and is presumed hung."""


class RestartBudgetExceeded(RuntimeError):
    """The farm spent its whole respawn budget — a crash loop, not a blip."""


@dataclasses.dataclass
class SupervisionPolicy:
    """Fault-tolerance knobs shared by the training and factory farms.

    Attributes
    ----------
    task_timeout:
        Seconds a single task may run on a worker before the worker is
        presumed hung, killed and respawned (``None`` disables — the
        default, since a legitimate task's cost is workload-dependent).
    max_retries:
        How many *additional* executions a failing task gets after its
        first attempt before it is given up on (quarantined, in the
        factory's vocabulary).  Crashes, timeouts and in-task exceptions
        all consume the same budget.
    max_restarts:
        Total worker respawns a farm may spend over its lifetime.
    poll_interval:
        Liveness-check tick in seconds: how often a waiting parent looks
        at process liveness and task deadlines between pipe polls.
    """

    task_timeout: Optional[float] = None
    max_retries: int = 2
    max_restarts: int = 8
    poll_interval: float = 0.2

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None to disable)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")

    def deadline(self, tasks: int = 1) -> Optional[float]:
        """Absolute monotonic deadline for ``tasks`` queued tasks, or None."""
        if self.task_timeout is None:
            return None
        return time.monotonic() + self.task_timeout * max(1, tasks)


class RestartBudget:
    """Counts worker respawns against a farm-wide bound."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spent = 0

    def spend(self, reason: str) -> None:
        """Consume one respawn; raise when the budget is exhausted."""
        if self.spent >= self.limit:
            raise RestartBudgetExceeded(
                f"worker restart budget ({self.limit}) exhausted; last fault: "
                f"{reason} — the farm is crash-looping, not hitting a blip "
                "(committed work is preserved; fix the cause and resume)")
        self.spent += 1


class SupervisedWorker:
    """One worker process + pipe, respawnable with identical start state.

    ``spawn(rank)`` must start the process, complete the farm's start-up
    handshake, and return ``(process, connection)`` — so a respawned
    worker is indistinguishable from a fresh one (same pickled payload,
    same shared buffers).  Spawn failures propagate to the caller.
    """

    def __init__(self, rank: int,
                 spawn: Callable[[int], Tuple[object, object]]) -> None:
        self.rank = rank
        self._spawn = spawn
        self.restarts = 0
        self.process, self.conn = spawn(rank)

    # ------------------------------------------------------------------ #
    def alive(self) -> bool:
        return self.process.is_alive()

    def has_data(self) -> bool:
        try:
            return self.conn.poll(0)
        except (OSError, ValueError):
            return False

    def send(self, message) -> None:
        """Send a task message; a broken pipe means the worker is dead."""
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as error:
            raise WorkerDied(
                f"worker {self.rank} died before accepting work "
                f"({error!r}); its process may have been killed "
                "(e.g. by the OOM killer)") from error

    def is_dead(self) -> bool:
        """Process gone *and* nothing left to read — truly dead.

        A worker that wrote replies and then died still has readable data
        in the pipe; those replies are collected normally and only the
        unanswered tasks are re-dispatched after the respawn.
        """
        return not self.alive() and not self.has_data()

    def recv_within(self, deadline: Optional[float],
                    poll_interval: float = 0.2):
        """Receive one reply, supervising liveness and the task deadline.

        Raises :class:`WorkerDied` when the process exits without
        replying, :class:`WorkerTimedOut` when ``deadline`` (monotonic
        seconds, ``None`` = no bound) passes first.
        """
        while True:
            try:
                if self.conn.poll(poll_interval):
                    return self.conn.recv()
            except (EOFError, OSError) as error:
                raise WorkerDied(
                    f"worker {self.rank} died with work in flight "
                    f"({error!r}); its process may have been killed "
                    "(e.g. by the OOM killer)") from error
            if self.is_dead():
                raise WorkerDied(
                    f"worker {self.rank} (pid {self.process.pid}) exited "
                    f"with code {self.process.exitcode} while its work was "
                    "in flight")
            if deadline is not None and time.monotonic() > deadline:
                raise WorkerTimedOut(
                    f"worker {self.rank} (pid {self.process.pid}) exceeded "
                    "its task timeout and is presumed hung")

    # ------------------------------------------------------------------ #
    def reap(self, graceful_timeout: float = 0.5) -> None:
        """Tear the worker down for good (terminate, then kill)."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=graceful_timeout)
            if self.process.is_alive():  # pragma: no cover - SIGTERM ignored
                self.process.kill()
                self.process.join(timeout=graceful_timeout)
        else:
            self.process.join(timeout=graceful_timeout)

    def respawn(self) -> None:
        """Reap the current process and start an identical replacement."""
        self.reap()
        self.restarts += 1
        self.process, self.conn = self._spawn(self.rank)

    def close(self, farewell=None, join_timeout: float = 5.0) -> None:
        """Best-effort orderly shutdown (used by the farms' close paths)."""
        if farewell is not None:
            try:
                self.conn.send(farewell)
            except (OSError, ValueError):
                pass
        self.process.join(timeout=join_timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1)
        try:
            self.conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------- #
# Farm: a set of supervised workers behind one wait loop
# ---------------------------------------------------------------------- #

#: The farewell message that ends a worker's serve loop.
_CLOSE = ("close",)


def _start_context():
    """Fork where available (near-instant start, and workers see the
    parent's module state as it is at start), else spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _serve(conn, rank: int, setup: Callable, args: tuple) -> None:
    """Worker process body of every :class:`Farm`.

    ``setup(rank, *args)`` builds the worker's handler; its outcome is the
    ready handshake (``("ready",)``, or ``("error", traceback)`` when it
    raised).  Then every message is answered in arrival order with
    ``("ok", handler(message))``, or ``("error", traceback)`` when the
    handler raised — the worker keeps serving after an in-task error.
    """
    try:
        handler = setup(rank, *args)
    except Exception:  # noqa: BLE001 - report the failure instead of dying mute
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    conn.send(("ready",))
    try:
        while True:
            message = conn.recv()
            if message == _CLOSE:
                break
            try:
                reply = ("ok", handler(message))
            except Exception:  # noqa: BLE001 - ship the traceback to the parent
                reply = ("error", traceback.format_exc())
            conn.send(reply)
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class Reply(NamedTuple):
    """A worker's answer to one tracked message."""

    rank: int
    message: object
    #: The handler's return value (``None`` when it raised).
    value: object
    #: The worker-side traceback when the handler raised, else ``None``.
    error: Optional[str]


class Lost(NamedTuple):
    """A worker that died or hung; it has already been replaced."""

    rank: int
    #: The messages it never answered, in send order — for the caller to
    #: re-send to the replacement or re-queue.
    messages: Tuple[object, ...]
    reason: str


class Farm:
    """Supervised worker processes that answer tracked messages.

    Every worker runs ``setup(rank, *args)`` once at start (the handshake
    waits for it) and then answers each message with the handler it
    returned.  :meth:`send` queues a message on one worker; :meth:`wait`
    blocks until replies arrive or a busy worker is lost, and returns them
    as :class:`Reply` / :class:`Lost` events.  A worker is lost when its
    process exits with messages unanswered, or when the message it is
    working on passes its deadline (``policy.task_timeout`` from when the
    worker could start on it).  The farm kills and replaces a lost worker
    — each replacement spends one unit of the :class:`RestartBudget`,
    which raises :class:`RestartBudgetExceeded` when spent — and hands the
    unanswered messages back in the :class:`Lost` event.

    Start-up failures (a worker dying or raising in ``setup``) raise
    ``RuntimeError``, after the workers already started are shut down.
    """

    def __init__(self, size: int, setup: Callable, args: Sequence = (),
                 policy: Optional[SupervisionPolicy] = None,
                 label: str = "worker") -> None:
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.label = label
        self._context = _start_context()
        self._setup = setup
        self._args = tuple(args)
        self._budget = RestartBudget(self.policy.max_restarts)
        self._outstanding = [collections.deque() for _ in range(size)]
        #: Monotonic deadline of the message each busy worker is on.
        self._deadlines: List[Optional[float]] = [None] * size
        self._workers: List[SupervisedWorker] = []
        try:
            for rank in range(size):
                self._workers.append(SupervisedWorker(rank, self._spawn))
        except BaseException:
            self.close()
            raise

    @property
    def size(self) -> int:
        return len(self._outstanding)

    @property
    def busy(self) -> bool:
        """Whether any sent message is still unanswered."""
        return any(self._outstanding)

    @property
    def restarts(self) -> int:
        """Workers replaced so far."""
        return self._budget.spent

    def _spawn(self, rank: int):
        """Start worker ``rank`` and complete its ready handshake."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_serve, args=(child_conn, rank, self._setup, self._args),
            daemon=True)
        process.start()
        child_conn.close()
        try:
            reply = parent_conn.recv()
        except (EOFError, OSError) as error:
            raise RuntimeError(
                f"{self.label} {rank} died during start-up ({error!r})") from error
        if reply[0] == "error":
            raise RuntimeError(f"{self.label} {rank} failed to start:\n{reply[1]}")
        return process, parent_conn

    # ------------------------------------------------------------------ #
    def send(self, rank: int, message) -> None:
        """Queue ``message`` on worker ``rank``; its reply comes from :meth:`wait`."""
        if not self._outstanding[rank]:
            self._deadlines[rank] = self.policy.deadline()
        self._outstanding[rank].append(message)
        try:
            self._workers[rank].send(message)
        except WorkerDied:
            pass  # the next wait() finds the dead worker and returns this message

    def wait(self) -> List[Union[Reply, Lost]]:
        """Block until at least one event; return every event ready.

        Replies are picked up as soon as they arrive, in arrival order per
        worker.  Returns an empty list when nothing is outstanding.
        """
        while self.busy:
            waiting = {self._workers[rank].conn: rank
                       for rank in range(self.size) if self._outstanding[rank]}
            ready = mp.connection.wait(list(waiting),
                                       timeout=self.policy.poll_interval)
            events: List[Union[Reply, Lost]] = []
            for conn in ready:
                rank = waiting.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    events.append(self._replace(rank))
                    continue
                message = self._outstanding[rank].popleft()
                self._deadlines[rank] = (self.policy.deadline()
                                         if self._outstanding[rank] else None)
                if reply[0] == "ok":
                    events.append(Reply(rank, message, reply[1], None))
                else:
                    events.append(Reply(rank, message, None, reply[1]))
            now = time.monotonic()
            for rank in waiting.values():
                worker = self._workers[rank]
                deadline = self._deadlines[rank]
                if worker.is_dead():
                    events.append(self._replace(rank))
                elif (deadline is not None and now > deadline
                        and not worker.has_data()):
                    events.append(self._replace(rank, hung=True))
            if events:
                return events
        return []

    def _replace(self, rank: int, hung: bool = False) -> Lost:
        """Kill worker ``rank``, spend one restart, start its replacement."""
        worker = self._workers[rank]
        messages = tuple(self._outstanding[rank])
        self._outstanding[rank].clear()
        self._deadlines[rank] = None
        worker.reap()
        cause = ("it exceeded its task timeout and is presumed hung" if hung
                 else f"its process exited with code {worker.process.exitcode}")
        reason = (f"{self.label} {rank} (pid {worker.process.pid}) was lost with "
                  f"{len(messages)} task(s) unanswered: {cause}")
        self._budget.spend(reason)
        worker.respawn()
        return Lost(rank, messages, reason)

    def close(self) -> None:
        """Shut every worker down (best effort, safe to call repeatedly)."""
        for worker in self._workers:
            worker.close(farewell=_CLOSE)
        self._workers = []
