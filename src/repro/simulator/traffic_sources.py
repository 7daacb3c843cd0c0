"""Packet sources: Poisson, on-off (bursty) and constant-bit-rate generators."""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.simulator.engine import Simulator
from repro.simulator.packet import Packet

__all__ = ["TrafficSource", "PoissonSource", "OnOffSource", "ConstantBitRateSource"]

#: Default average packet size in bits (1000-byte packets).
DEFAULT_PACKET_SIZE_BITS = 8000.0


class TrafficSource:
    """Base class: emits packets of one flow into a sink callable.

    Packet identifiers come from the simulator, so they count from 0 in
    every simulation and are unique across all of its sources.
    """

    def __init__(
        self,
        simulator: Simulator,
        flow: Tuple[int, int],
        rate_bps: float,
        sink: Callable[[Packet], None],
        mean_packet_size_bits: float = DEFAULT_PACKET_SIZE_BITS,
        rng: Optional[np.random.Generator] = None,
        exponential_packet_sizes: bool = True,
        priority: int = 0,
    ) -> None:
        if rate_bps < 0:
            raise ValueError("rate must be non-negative")
        if mean_packet_size_bits <= 0:
            raise ValueError("packet size must be positive")
        if priority < 0:
            raise ValueError("priority must be non-negative (0 is the highest class)")
        self.simulator = simulator
        self.flow = (int(flow[0]), int(flow[1]))
        self.rate_bps = float(rate_bps)
        self.sink = sink
        self.mean_packet_size_bits = float(mean_packet_size_bits)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.exponential_packet_sizes = exponential_packet_sizes
        self.priority = int(priority)
        self.packets_generated = 0
        self.stopped = False
        self.stop_time: Optional[float] = None

    # ------------------------------------------------------------------ #
    @property
    def packets_per_second(self) -> float:
        """Average packet rate implied by the bit rate and packet size."""
        return self.rate_bps / self.mean_packet_size_bits

    def _packet_size(self) -> float:
        if self.exponential_packet_sizes:
            return float(self.rng.exponential(self.mean_packet_size_bits))
        return self.mean_packet_size_bits

    def _emit(self) -> None:
        packet = Packet(
            packet_id=self.simulator.next_packet_id(),
            flow=self.flow,
            size_bits=max(self._packet_size(), 1.0),
            created_at=self.simulator.now,
            priority=self.priority,
        )
        self.packets_generated += 1
        self.sink(packet)

    def start(self, stop_time: Optional[float] = None) -> None:
        """Begin generating packets (until ``stop_time`` if given)."""
        self.stop_time = stop_time
        if self.rate_bps <= 0:
            return
        self._schedule_next()

    def stop(self) -> None:
        """Stop generating new packets."""
        self.stopped = True

    def _should_stop(self) -> bool:
        if self.stopped:
            return True
        return self.stop_time is not None and self.simulator.now >= self.stop_time

    def _schedule_next(self) -> None:  # pragma: no cover - abstract hook
        raise NotImplementedError


class PoissonSource(TrafficSource):
    """Poisson packet arrivals: exponential inter-arrival times.

    With exponential packet sizes this makes every link an M/M/1/K system,
    which is exactly the regime the analytic baseline covers — ideal for
    validating the simulator.
    """

    def _schedule_next(self) -> None:
        if self._should_stop():
            return
        gap = self.rng.exponential(1.0 / self.packets_per_second)
        self.simulator.schedule(gap, self._fire)

    def _fire(self) -> None:
        if self._should_stop():
            return
        self._emit()
        self._schedule_next()


class ConstantBitRateSource(TrafficSource):
    """Deterministic arrivals at fixed intervals with fixed packet sizes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.exponential_packet_sizes = False

    def _schedule_next(self) -> None:
        if self._should_stop():
            return
        self.simulator.schedule(1.0 / self.packets_per_second, self._fire)

    def _fire(self) -> None:
        if self._should_stop():
            return
        self._emit()
        self._schedule_next()


class OnOffSource(TrafficSource):
    """A bursty source alternating exponential ON and OFF periods.

    During ON periods packets arrive as a Poisson process at a rate chosen so
    the *long-run average* equals ``rate_bps``.
    """

    def __init__(self, *args, mean_on_time: float = 0.1, mean_off_time: float = 0.3,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if mean_on_time <= 0 or mean_off_time < 0:
            raise ValueError("invalid on/off durations")
        self.mean_on_time = mean_on_time
        self.mean_off_time = mean_off_time
        duty_cycle = mean_on_time / (mean_on_time + mean_off_time)
        self._on_rate_pps = self.packets_per_second / duty_cycle
        self._on = False
        self._phase_end = 0.0

    def _schedule_next(self) -> None:
        if self._should_stop():
            return
        if not self._on:
            # Begin an ON phase now.
            self._on = True
            self._phase_end = self.simulator.now + self.rng.exponential(self.mean_on_time)
        gap = self.rng.exponential(1.0 / self._on_rate_pps)
        self.simulator.schedule(gap, self._fire)

    def _fire(self) -> None:
        if self._should_stop():
            return
        if self.simulator.now >= self._phase_end:
            # Phase over: stay silent for an OFF period, then start a new ON phase.
            self._on = False
            off_duration = self.rng.exponential(self.mean_off_time) if self.mean_off_time else 0.0
            self.simulator.schedule(off_duration, self._schedule_next)
            return
        self._emit()
        gap = self.rng.exponential(1.0 / self._on_rate_pps)
        self.simulator.schedule(gap, self._fire)
