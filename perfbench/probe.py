"""Host-speed probe: a fixed piece of work timed next to the workload.

The benchmark runs on a few cores of a shared machine whose speed drifts:
the same code runs up to half again as slow for seconds or minutes at a
time, whatever the program does.  Raw timings of ``generate``,
``predict`` and ``train`` spread more between runs of one commit than
the regressions they are meant to catch.

The probe is measured next to every timed unit: after every block of
``predict`` queries, before and after every ``train`` epoch, and before
and after every ``generate`` unit inside the factory worker that runs it.
Each unit's seconds are scaled by ``REFERENCE_S / probe seconds``: the
time it would have taken on a host that runs the probe in its reference
time.  The probe is the benchmark's own fixed code, never the program's,
so a change to the program moves the scaled figures exactly as much as
the raw ones.  Its work resembles the workload's: ``numpy`` is the
compiled scan's GEMM of the scan's shape on the same BLAS threads, then
tanh; ``python`` is a priority queue of tuples, the simulator's kind of
work.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

import numpy as np

#: Seconds one chunk of each kind takes on the reference host: this
#: machine's quieter phases (2-vCPU Xeon VM, Python 3.11, NumPy 2.4 on
#: OpenBLAS 0.3.31).  Only the ratio matters; it keeps the scaled figures
#: close to the raw ones on a quiet host.
REFERENCE_S = {"numpy": 0.6e-3, "python": 1.0e-3}
#: Chunks per measurement (about 10 ms and 3 ms); the measurement is their
#: median.
CHUNKS = {"numpy": 15, "python": 3}
GEMM_ROUNDS = 5
TABLE_SIZE = 20_000
HEAP_PUSHES = 2_000


class HostProbe:
    """Times a fixed chunk of NumPy (``numpy``) or Python (``python``) work."""

    def __init__(self, kind: str) -> None:
        if kind not in REFERENCE_S:
            raise ValueError(f"unknown probe kind {kind!r}")
        self.kind = kind
        rng = random.Random(1)
        self._table = [(rng.random(), index) for index in range(TABLE_SIZE)]
        self._order = [rng.randrange(TABLE_SIZE) for _ in range(HEAP_PUSHES)]
        generator = np.random.default_rng(1)
        self._a = generator.random((1024, 16))
        self._b = generator.random((16, 48))
        self._c = generator.random((1024, 48))
        # Preallocated output: a chunk that allocated would time the
        # allocator, whose state depends on what the program did before.
        self._out = np.empty((1024, 48))
        for _ in range(10):
            self._chunk()

    def _chunk(self) -> None:
        if self.kind == "python":
            heap = []
            for index in self._order:
                heapq.heappush(heap, self._table[index])
            while heap:
                heapq.heappop(heap)
            return
        for _ in range(GEMM_ROUNDS):
            np.matmul(self._a, self._b, out=self._out)
            np.add(self._out, self._c, out=self._out)
            np.tanh(self._out, out=self._out)

    def measure(self) -> float:
        """The median seconds of back-to-back chunks."""
        times = []
        for _ in range(CHUNKS[self.kind]):
            started = time.perf_counter()
            self._chunk()
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    def scale(self, probe_s: float) -> float:
        """Factor that turns seconds measured at ``probe_s`` into reference seconds."""
        return REFERENCE_S[self.kind] / probe_s
