"""Event objects and the future-event list of the discrete-event engine."""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "EventQueue"]


@dataclasses.dataclass(order=False, slots=True)
class Event:
    """A scheduled callback.

    Events compare by ``(time, sequence)`` so that simultaneous events are
    processed in the order they were scheduled, which keeps runs
    deterministic.
    """

    time: float
    sequence: int
    callback: Callable[[], Any]
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is popped."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)


class EventQueue:
    """A binary-heap future-event list.

    The heap holds ``(time, sequence, event)`` tuples rather than the events
    themselves, so :mod:`heapq` orders it with C tuple comparisons instead
    of calls to :meth:`Event.__lt__`.  The sequence number is unique and
    increases with every push: two entries never compare equal on both keys,
    the event itself is never compared, and simultaneous events leave in the
    order they were scheduled, exactly as ``Event`` ordering defines.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    def push(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return the event."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        sequence = next(self._counter)
        event = Event(time, sequence, callback)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest non-cancelled event, or ``None`` when empty."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
