"""Outside-in span tracer: wraps the program's public calls, records spans.

The traced run installs wrappers around the public functions and methods
named in :mod:`layers` without touching the program's source.  Each
wrapper opens a span (name, start, end, parent) on the calling thread's
stack.  The parent process keeps its spans in memory until the run ends.
Factory and gradient workers are forked after the wrappers are installed,
so they inherit them; a forked worker leaves through ``os._exit`` and runs
no exit handler, so it appends every span to a per-process spool file the
moment the span closes.

A layer's number is its *self time*: the span's duration minus the
durations of its direct children.  :func:`coverage` reports how much of a
window the spans of all processes and threads cover together, which is
what ``trace.untraced_share`` is built from.
"""

from __future__ import annotations

import bisect
import collections
import functools
import glob
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: One closed span: (pid, span id, parent id, name, start, end, thread
#: name, work count, tag).  Parent id 0 means "no parent in this process".
SpanRecord = Tuple[int, int, int, str, float, float, str, float, Optional[str]]


class Tracer:
    """Span recorder plus the monkey-patching that feeds it.

    Only one tracer may be installed in a process at a time; it registers
    a fork hook so a forked worker starts with an empty span stack and
    writes its spans to ``<spool_dir>/spans-<pid>.jsonl``.
    """

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.spans: List[SpanRecord] = []
        self.gauges: Dict[str, float] = {}
        self.captured: Dict[str, object] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._spool = None
        os.makedirs(spool_dir, exist_ok=True)
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------ #
    def _after_fork(self) -> None:
        if not self._patches:
            return
        # The child inherits the forking thread's open spans; they belong
        # to the parent, so the worker starts a fresh stack and spool.
        self._local = threading.local()
        self.spans = []
        self._spool = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, record: SpanRecord) -> None:
        if record[0] == self.pid:
            self.spans.append(record)
            return
        if self._spool is None:
            path = os.path.join(self.spool_dir, f"spans-{record[0]}.jsonl")
            self._spool = open(path, "a", encoding="utf-8", buffering=1)
        self._spool.write(json.dumps(record) + "\n")

    def open_span(self) -> Tuple[int, int]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent

    def close_span(self, span_id: int, parent: int, name: str, start: float,
                   end: float, count: float = 1.0,
                   tag: Optional[str] = None) -> None:
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self._record((os.getpid(), span_id, parent, name, start, end,
                      threading.current_thread().name, count, tag))

    def run_span(self, name: str, function: Callable, *args, **kwargs):
        """Call ``function`` inside a span called ``name``."""
        span_id, parent = self.open_span()
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            self.close_span(span_id, parent, name, start, time.perf_counter())

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, value), value)

    # ------------------------------------------------------------------ #
    def wrap(self, owner, attribute: str, name, count: Optional[Callable] = None,
             tag: Optional[Callable] = None, skip: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``name`` is a span name or a callable of the call's arguments;
        ``count(result, *args)`` gives the span's work count (default 1);
        ``tag(*args)`` labels it; ``skip(*args)`` true calls the original
        without a span (used for memoised cache hits); ``after(result,
        *args)`` runs after the span closes.
        """
        had_own = isinstance(owner, type) and attribute in vars(owner)
        original = vars(owner)[attribute] if had_own else getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(*args, **kwargs):
                return original(*args, **kwargs)
            span_name = name(*args, **kwargs) if callable(name) else name
            span_id, parent = tracer.open_span()
            start = time.perf_counter()
            work = 0.0
            try:
                result = original(*args, **kwargs)
                work = count(result, *args, **kwargs) if count is not None else 1.0
            finally:
                tracer.close_span(span_id, parent, span_name, start,
                                  time.perf_counter(), work,
                                  tag(*args, **kwargs) if tag is not None else None)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._patches.append((owner, attribute, original, had_own))
        setattr(owner, attribute, wrapper)

    def wrap_generator(self, owner, attribute: str, name: str) -> None:
        """Wrap a generator method so each ``next`` is one span.

        The consumer's time between items is outside every span: a span
        covers exactly the producing work of one item (decode, checksum).
        """
        original = vars(owner)[attribute]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                span_id, parent = tracer.open_span()
                start = time.perf_counter()
                work = 0.0
                try:
                    item = next(inner)
                    work = 1.0
                except StopIteration:
                    return
                finally:
                    tracer.close_span(span_id, parent, name, start,
                                      time.perf_counter(), work)
                yield item

        self._patches.append((owner, attribute, original, True))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, had_own in reversed(self._patches):
            if isinstance(owner, type) and not had_own:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches = []

    # ------------------------------------------------------------------ #
    def collect(self) -> List[SpanRecord]:
        """Every span: the parent's in memory plus every worker's spool."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "spans-*.jsonl"))):
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        spans.append(tuple(json.loads(line)))
        return spans

    def reset(self) -> None:
        """Drop every recorded span and gauge (parent and spool files)."""
        self.spans = []
        self.gauges = {}
        for path in glob.glob(os.path.join(self.spool_dir, "spans-*.jsonl")):
            os.remove(path)


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #

class SpanTable:
    """Self times, inclusive times, counts and tree queries over spans."""

    def __init__(self, spans: List[SpanRecord]) -> None:
        self.spans = spans
        child_time: Dict[Tuple[int, int], float] = collections.defaultdict(float)
        for pid, _, parent, _, start, end, *_ in spans:
            if parent:
                child_time[(pid, parent)] += end - start
        self.by_id = {(s[0], s[1]): s for s in spans}
        self.self_time = {(s[0], s[1]): (s[5] - s[4]) - child_time[(s[0], s[1])]
                          for s in spans}

    def named(self, name: str, thread: Optional[str] = None) -> List[SpanRecord]:
        return [s for s in self.spans
                if s[3] == name and (thread is None or s[6] == thread)]

    def self_seconds(self, name: str) -> float:
        return sum(self.self_time[(s[0], s[1])] for s in self.named(name))

    def total_seconds(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def work(self, name: str) -> float:
        return sum(s[7] for s in self.named(name))

    def thread_self_seconds(self, thread: str) -> float:
        return sum(self.self_time[(s[0], s[1])] for s in self.spans if s[6] == thread)

    def ancestor_named(self, span: SpanRecord, names) -> Optional[SpanRecord]:
        parent = span[2]
        while parent:
            current = self.by_id.get((span[0], parent))
            if current is None:
                return None
            if current[3] in names:
                return current
            parent = current[2]
        return None

    def within(self, roots: Iterable[str]) -> "SpanTable":
        """The spans that start inside one of the named root spans' windows
        (any process or thread): the timed operations, not the checks the
        benchmark runs between them."""
        roots = set(roots)
        windows = sorted((s[4], s[5]) for s in self.spans if s[3] in roots)
        starts = [low for low, _ in windows]

        def inside(span: SpanRecord) -> bool:
            position = bisect.bisect_right(starts, span[4]) - 1
            return position >= 0 and span[4] <= windows[position][1]

        return SpanTable([s for s in self.spans if inside(s)])

    def ledger(self) -> List[Tuple[str, int, float, float]]:
        """(name, calls, self seconds, inclusive seconds) by self time."""
        rows: Dict[str, List[float]] = {}
        for span in self.spans:
            row = rows.setdefault(span[3], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.self_time[(span[0], span[1])]
            row[2] += span[5] - span[4]
        return sorted(((name, int(r[0]), r[1], r[2]) for name, r in rows.items()),
                      key=lambda item: -item[2])


def coverage(spans: List[SpanRecord], windows: List[Tuple[float, float]],
             exclude: Iterable[str] = ()) -> float:
    """Share of the windows' total length that some span covers.

    Spans of every process and thread count (``perf_counter`` reads the
    system-wide monotonic clock, so forked workers' times line up with the
    parent's).  Spans named in ``exclude`` (the workload's own root spans)
    do not count as coverage.
    """
    excluded = set(exclude)
    union: List[List[float]] = []
    for start, end in sorted((s[4], s[5]) for s in spans if s[3] not in excluded):
        if union and start <= union[-1][1]:
            union[-1][1] = max(union[-1][1], end)
        else:
            union.append([start, end])
    ends = [end for _, end in union]
    total = covered = 0.0
    for low, high in windows:
        total += high - low
        position = bisect.bisect_right(ends, low)
        while position < len(union) and union[position][0] < high:
            covered += min(union[position][1], high) - max(union[position][0], low)
            position += 1
    return covered / total if total > 0 else 0.0
