"""The discrete-event simulation engine (clock + future-event list)."""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

from repro.simulator.events import Event, EventQueue

__all__ = ["Simulator"]


class Simulator:
    """A minimal, deterministic discrete-event engine.

    Components schedule callbacks with :meth:`schedule` (relative delay) or
    :meth:`schedule_at` (absolute time); :meth:`run` processes events in
    chronological order until the horizon or until the event list drains.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._processed = 0
        self._running = False
        self._packet_ids = itertools.count()

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled."""
        return len(self._queue)

    def next_packet_id(self) -> int:
        """A fresh packet identifier: 0, 1, 2, ... within this simulation."""
        return next(self._packet_ids)

    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self._queue.push(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self._now:
            raise ValueError("cannot schedule an event in the past")
        return self._queue.push(time, callback)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until ``until`` seconds, ``max_events`` events, or drain.

        Returns the simulation time when the run stopped.  Events scheduled
        exactly at ``until`` are *not* executed (the horizon is exclusive),
        but the clock is advanced to ``until`` when a horizon is given.
        """
        if self._running:
            raise RuntimeError("run() is not re-entrant")
        self._running = True
        heap = self._queue._heap
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        budget = -1 if max_events is None else max(max_events, 0)
        executed = 0
        try:
            while heap and executed != budget:
                entry = heappop(heap)
                event = entry[2]
                if event.cancelled:
                    continue
                time = entry[0]
                if time >= horizon:
                    # Not due yet: put it back for the next run.
                    heapq.heappush(heap, entry)
                    break
                self._now = time
                event.callback()
                self._processed += 1
                executed += 1
            if until is not None:
                next_time = self._queue.peek_time()
                if next_time is None or next_time >= until:
                    self._now = max(self._now, until)
        finally:
            self._running = False
        return self._now

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._queue.clear()
        self._now = 0.0
        self._processed = 0
        self._packet_ids = itertools.count()
