"""The `Farm` both worker pools run on, against real echo workers: a lost
worker's unanswered messages come back to the caller and its replacement
serves the resend, replies arrive as they are ready, and an exhausted
restart budget raises."""

import os
import time

import pytest

from repro.supervision import Farm, Lost, Reply, RestartBudgetExceeded, SupervisionPolicy


def _echo_setup(rank):
    """Worker handler: echo, sleep, or die on command."""
    def handle(message):
        kind, value = message
        if kind == "sleep":
            time.sleep(value)
        elif kind == "exit":
            os._exit(3)
        return (rank, value)
    return handle


def _events_until(farm, count, deadline_s=30.0):
    """Every event of the next ``count`` events, however they batch up."""
    events = []
    stop = time.monotonic() + deadline_s
    while len(events) < count:
        assert time.monotonic() < stop, f"only {events} arrived"
        events.extend(farm.wait())
    return events


def test_killed_worker_returns_its_unanswered_messages_and_is_replaced():
    farm = Farm(1, _echo_setup, policy=SupervisionPolicy(poll_interval=0.05))
    try:
        farm.send(0, ("echo", 1))
        farm.send(0, ("exit", None))
        farm.send(0, ("echo", 2))
        answered, lost = _events_until(farm, 2)
        assert answered == Reply(0, ("echo", 1), (0, 1), None)
        assert isinstance(lost, Lost)
        assert lost.messages == (("exit", None), ("echo", 2))
        assert "exited with code 3" in lost.reason
        assert farm.restarts == 1
        assert not farm.busy

        farm.send(0, lost.messages[1])
        assert _events_until(farm, 1) == [Reply(0, ("echo", 2), (0, 2), None)]
    finally:
        farm.close()


def test_task_past_its_deadline_is_lost_the_same_way():
    farm = Farm(1, _echo_setup, policy=SupervisionPolicy(task_timeout=0.5,
                                                          poll_interval=0.05))
    try:
        farm.send(0, ("sleep", 60.0))
        farm.send(0, ("echo", 3))
        started = time.monotonic()
        (lost,) = _events_until(farm, 1)
        assert time.monotonic() - started < 30.0
        assert isinstance(lost, Lost)
        assert lost.messages == (("sleep", 60.0), ("echo", 3))
        assert "presumed hung" in lost.reason
        assert farm.restarts == 1

        farm.send(0, lost.messages[1])
        assert _events_until(farm, 1) == [Reply(0, ("echo", 3), (0, 3), None)]
    finally:
        farm.close()


def test_replies_come_back_in_arrival_order():
    farm = Farm(2, _echo_setup, policy=SupervisionPolicy(poll_interval=0.05))
    try:
        farm.send(0, ("sleep", 1.0))
        farm.send(1, ("echo", "fast"))
        assert farm.wait() == [Reply(1, ("echo", "fast"), (1, "fast"), None)]
        assert farm.wait() == [Reply(0, ("sleep", 1.0), (0, 1.0), None)]
        assert farm.wait() == []
    finally:
        farm.close()


def test_exhausted_budget_raises():
    farm = Farm(1, _echo_setup, policy=SupervisionPolicy(max_restarts=0,
                                                          poll_interval=0.05))
    try:
        farm.send(0, ("exit", None))
        with pytest.raises(RestartBudgetExceeded, match="restart budget"):
            _events_until(farm, 1)
    finally:
        farm.close()
