"""Runtime collector: the periodic sampler.

The paper's trace figures (CWND over time, send-buffer occupancy) are
sampled periodically in the kernel; :class:`PeriodicSampler` does the same
against any zero-argument probe.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


class PeriodicSampler:
    """Samples named probes into a :class:`TraceRecorder` at a fixed period.

    >>> # sampler = PeriodicSampler(sim, trace, period=0.05)
    >>> # sampler.add("cwnd.lte", lambda: subflow.cwnd)
    >>> # sampler.start(until=600.0)
    """

    def __init__(self, sim: Simulator, trace: TraceRecorder, period: float) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self.sim = sim
        self._rank = sim.next_rank()
        self.trace = trace
        self.period = period
        self._probes: Dict[str, Callable[[], float]] = {}
        self._until: Optional[float] = None
        self._started = False

    def add(self, series: str, probe: Callable[[], float]) -> None:
        """Register a probe; its value is recorded under ``series``."""
        self._probes[series] = probe

    def start(self, until: Optional[float] = None) -> None:
        """Begin sampling now and every ``period`` thereafter."""
        if self._started:
            raise RuntimeError("sampler already started")
        self._started = True
        self._until = until
        self._tick()

    def _tick(self) -> None:
        now = self.sim.now
        if self._until is not None and now > self._until:
            return
        for series, probe in self._probes.items():
            self.trace.record(series, now, float(probe()))
        self.sim.schedule(self.period, self._tick)
