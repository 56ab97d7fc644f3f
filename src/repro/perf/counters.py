"""Deterministic per-run performance instrumentation.

The simulator's cost model is dominated by the per-packet event loop, so
the counters that matter are the ones the hot path already maintains for
free: events dispatched and stale (cancelled-but-popped) heap entries on
the :class:`~repro.sim.engine.Simulator`, packet counters on
:class:`~repro.net.link.LinkStats`, and decision counters on
:class:`~repro.core.base.Scheduler`.  This module aggregates them over a
*collection window* without adding any per-packet work:

* a window is opened with :func:`collecting` (or implicitly by the
  ``REPRO_PERF=1`` environment variable + :func:`measure`), which arms a
  :class:`PerfCollector` on the probe seam (:mod:`repro.sim.probe`);
* ``Simulator``, ``Link``, and ``Scheduler`` constructors report
  themselves to the seam's ``adopt`` point once, at *construction* time
  -- so when nothing is armed the hot path is untouched, and collection
  itself adds no per-packet work;
* :meth:`PerfCollector.snapshot` sums the adopted objects' lifetime
  counters into a :class:`PerfSnapshot`.

Every counter in a snapshot is a deterministic function of the simulated
run (same spec, same counts -- asserted in tests).  Wall-clock time is
*not*: :func:`measure` reports it separately in the :class:`PerfRecord`
so deterministic and noisy quantities never mix in one field.

It sits above the transport core (it imports the classes it adopts)
and is never imported from below.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.base import Scheduler
from repro.net.link import Link
from repro.sim import probe as _probe
from repro.sim.codec import Record
from repro.sim.engine import Simulator

#: Environment variable that enables perf collection around executor runs.
ENV_VAR = "REPRO_PERF"

#: This module's role on the probe seam.
_ROLE = "perf"


def perf_enabled() -> bool:
    """True when the environment asks for per-run perf records."""
    return _probe.env_on(ENV_VAR)


@dataclass(frozen=True)
class PerfSnapshot(Record):
    """Deterministic counter totals over one collection window (its wire
    form is the field dict, :mod:`repro.sim.codec`)."""

    #: Events executed by adopted simulators (callbacks actually run).
    events_dispatched: int = 0
    #: Cancelled heap entries that were popped and skipped (dead weight).
    stale_pops: int = 0
    #: Timers pushed onto adopted heaps.
    timers_scheduled: int = 0
    #: ``Timer.cancel()`` calls that actually cancelled a live timer.
    timers_cancelled: int = 0
    #: Times a heap was rebuilt to shed cancelled entries.
    heap_compactions: int = 0
    #: Packets presented to adopted links.
    packets_in: int = 0
    #: Packets delivered out the far end of adopted links.
    packets_delivered: int = 0
    #: Packets dropped for any reason (queue, random loss, outage).
    packets_dropped: int = 0
    #: Payload + header bytes delivered by adopted links.
    bytes_delivered: int = 0
    #: ``select()`` calls answered by adopted schedulers.
    scheduler_decisions: int = 0
    #: Decisions that returned "wait" (no subflow chosen).
    scheduler_waits: int = 0
    #: Largest simulated clock reached by any adopted simulator.
    sim_time: float = 0.0


@dataclass(frozen=True)
class PerfRecord:
    """One measured run: deterministic counters plus wall-clock context.

    ``events_per_wall_s`` is the headline throughput figure the bench
    trajectory tracks.
    """

    wall_s: float
    sim_s: float
    events: int
    counters: PerfSnapshot

    @property
    def events_per_wall_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "wall_s": self.wall_s,
            "sim_s": self.sim_s,
            "events": self.events,
            "events_per_wall_s": self.events_per_wall_s,
            "counters": self.counters.to_dict(),
        }


class PerfCollector(_probe.Probe):
    """Adopts simulators, links, and schedulers built while it is armed.

    Strong references are intentional: a collection window brackets one
    run, so adopted objects die with the window.
    """

    def __init__(self) -> None:
        self._sims: List[Any] = []
        self._link_stats: List[Any] = []
        self._schedulers: List[Any] = []

    # -- the seam's construction point ----------------------------------
    def adopt(self, obj: Any) -> None:
        if isinstance(obj, Simulator):
            self._sims.append(obj)
        elif isinstance(obj, Link):
            self._link_stats.append(obj.stats)
        elif isinstance(obj, Scheduler):
            self._schedulers.append(obj)

    def adopted_counts(self) -> Dict[str, int]:
        """How many objects of each kind this collector adopted."""
        return {
            "sims": len(self._sims),
            "links": len(self._link_stats),
            "schedulers": len(self._schedulers),
        }

    # -- aggregation -----------------------------------------------------
    def snapshot(self) -> PerfSnapshot:
        events = stale = scheduled = cancelled = compactions = 0
        sim_time = 0.0
        for sim in self._sims:
            events += sim.events_processed
            stale += sim.stale_pops
            scheduled += sim.timers_scheduled
            cancelled += sim.timers_cancelled
            compactions += sim.heap_compactions
            if sim.now > sim_time:
                sim_time = sim.now
        pin = pout = pdrop = bdel = 0
        for stats in self._link_stats:
            pin += stats.packets_in
            pout += stats.packets_delivered
            pdrop += stats.packets_dropped
            bdel += stats.bytes_delivered
        decisions = waits = 0
        for scheduler in self._schedulers:
            decisions += scheduler.decisions
            waits += scheduler.waits
        return PerfSnapshot(
            events_dispatched=events,
            stale_pops=stale,
            timers_scheduled=scheduled,
            timers_cancelled=cancelled,
            heap_compactions=compactions,
            packets_in=pin,
            packets_delivered=pout,
            packets_dropped=pdrop,
            bytes_delivered=bdel,
            scheduler_decisions=decisions,
            scheduler_waits=waits,
            sim_time=sim_time,
        )


def current() -> Optional[PerfCollector]:
    """The collector of the innermost open window, or ``None``."""
    collector = _probe.armed(_ROLE)
    return collector if isinstance(collector, PerfCollector) else None


@contextmanager
def collecting() -> Iterator[PerfCollector]:
    """Open a collection window; restores the previous collector on exit.

    Windows nest (the innermost wins), but simulators built in an outer
    window are not re-adopted by an inner one -- each object belongs to
    the window that was active when it was constructed.
    """
    collector = PerfCollector()
    previous = _probe.swap(_ROLE, collector)
    try:
        yield collector
    finally:
        _probe.swap(_ROLE, previous)


def measure(runner: Callable[..., Any], *args: Any) -> Tuple[Any, PerfRecord]:
    """Run ``runner(*args)`` inside a collection window and time it.

    Returns the runner's result and a :class:`PerfRecord` combining the
    deterministic counter snapshot with the (non-deterministic) wall
    clock spent.
    """
    with collecting() as collector:
        # Host wall clock, not simulated time: this measures how fast the
        # hardware chews through the event loop, which is the whole point.
        start = time.perf_counter()
        result = runner(*args)
        wall = time.perf_counter() - start
    snap = collector.snapshot()
    record = PerfRecord(
        wall_s=wall,
        sim_s=snap.sim_time,
        events=snap.events_dispatched,
        counters=snap,
    )
    return result, record
