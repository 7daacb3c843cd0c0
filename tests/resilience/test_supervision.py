"""Unit tests for the shared supervision layer: the policy's validation and
task deadline, the restart budget, and a real worker process whose pipe
breaks.  The :class:`~repro.supervision.Farm` built on them is covered by
``test_farm.py``."""

import multiprocessing as mp
import os
import time

import pytest

from repro.supervision import (
    RestartBudget,
    RestartBudgetExceeded,
    SupervisedWorker,
    SupervisionPolicy,
    WorkerDied,
)


def _echo_worker_main(conn):
    """Minimal pipe-protocol worker: dies on command."""
    try:
        while True:
            kind = conn.recv()[0]
            if kind == "exit":
                os._exit(3)
            if kind == "close":
                break
    except (EOFError, OSError):
        pass


def _spawn_echo(rank: int):
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    context = mp.get_context(method)
    parent_conn, child_conn = context.Pipe()
    process = context.Process(target=_echo_worker_main, args=(child_conn,),
                              daemon=True)
    process.start()
    child_conn.close()
    return process, parent_conn


class TestSupervisionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="task_timeout"):
            SupervisionPolicy(task_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            SupervisionPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="max_restarts"):
            SupervisionPolicy(max_restarts=-1)
        with pytest.raises(ValueError, match="poll_interval"):
            SupervisionPolicy(poll_interval=0)

    def test_deadline_scales_with_queued_tasks(self):
        assert SupervisionPolicy().deadline() is None
        policy = SupervisionPolicy(task_timeout=10.0)
        now = time.monotonic()
        assert policy.deadline() == pytest.approx(now + 10.0, abs=1.0)


class TestRestartBudget:
    def test_spend_raises_past_the_limit_naming_the_fault(self):
        budget = RestartBudget(2)
        budget.spend("first crash")
        budget.spend("second crash")
        assert budget.spent == 2
        with pytest.raises(RestartBudgetExceeded, match="third crash"):
            budget.spend("third crash")

    def test_zero_budget_fails_on_first_fault(self):
        with pytest.raises(RestartBudgetExceeded):
            RestartBudget(0).spend("any")


class TestSupervisedWorker:
    def test_send_to_dead_worker_raises(self):
        worker = SupervisedWorker(0, _spawn_echo)
        worker.send(("exit",))
        worker.process.join(timeout=10)
        worker.conn.close()
        with pytest.raises(WorkerDied):
            worker.send(("echo", 1))
        worker.reap()
