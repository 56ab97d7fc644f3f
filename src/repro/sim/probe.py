"""The probe seam: the one instrumentation import the transport core makes.

Everything under ``repro.sim|net|tcp|mptcp|core`` reports what it does
through a single slot, :data:`ACTIVE`, which is ``None`` unless some
tool is armed.  A hook site is one test of one local::

    probe = _probe.ACTIVE
    if probe is not None:
        probe.segment_sent(self, segment)

and passes ``self`` plus only the locals a subscriber could not read
back off ``self``.  What happens with a point -- building a typed event
record, auditing an invariant, timing a call -- is decided entirely by
the subscribers, which live *above* the core (event log, sanitizer,
flight recorder, perf collector, profiler) and install themselves with
:func:`swap`.  The core never imports them, so a new tool is a new
:class:`Probe` subclass and no edit to the transport.

Subscribers are keyed by a *role* (one event log, one sanitizer, ... at
a time).  :func:`swap` replaces the subscriber of one role and returns
the one it displaced, which is all a tool needs for scoped windows that
nest and restore independently of the other roles.

This module is stdlib-only and imports nothing from the package.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Callable, Dict, List, Optional

_UIDS = itertools.count(1)


def env_on(name: str) -> bool:
    """How every tool reads its on/off environment switch: unset, empty
    and ``0`` (after ``strip()``) are off, anything else is on."""
    return os.environ.get(name, "").strip() not in ("", "0")


def next_uid() -> int:
    """Process-unique id for probe subjects (subflows, receivers, ...)."""
    return next(_UIDS)


class Probe:
    """A subscriber.  Override the points you observe; a point nobody
    overrides costs the core one no-op call while anything is armed and
    nothing at all otherwise."""

    #: Subscribers run in ascending ``order`` at each point (ties: arming
    #: order).  The sanitizer sits at 0 so a broken invariant raises
    #: before any recorder sees the same point.
    order = 100

    #: True on the armed fan-out when some subscriber overrides an engine
    #: bracket point; otherwise ``Simulator.run`` keeps its bare loop.
    brackets_dispatch = False

    # -- construction ---------------------------------------------------
    def adopt(self, obj: Any) -> None:
        """``obj`` (Simulator, Link, Scheduler, TraceRecorder) was built."""

    # -- engine dispatch bracket ----------------------------------------
    def run_begin(self, sim: Any) -> None:
        """``sim.run()`` is entering its loop."""

    def run_end(self, sim: Any) -> None:
        """``sim.run()`` left its loop (normally or by exception)."""

    def event_begin(self, sim: Any, time: float, timer: Any) -> None:
        """``timer`` left the heap; ``sim.now`` is still the previous time."""

    def event_end(self, sim: Any) -> None:
        """The callback of the last :meth:`event_begin` returned or raised."""

    def timed(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` as the hot spot ``name``; returns its result."""
        return fn(*args)

    # -- state audits ---------------------------------------------------
    def audit_cwnd(self, subflow: Any) -> None:
        """A congestion controller just moved ``subflow``'s window."""

    def audit_subflow(self, subflow: Any) -> None:
        """``subflow`` finished an ACK or RTO processing pass."""

    def audit_link(self, link: Any) -> None:
        """``link`` accepted a packet or took its FIFO head's turn."""

    def audit_connection(self, conn: Any) -> None:
        """``conn`` finished a scheduling pass."""

    def audit_conn_una(self, conn: Any, data_ack: int) -> None:
        """``conn.conn_una`` is about to advance to ``data_ack``."""

    def audit_receiver(self, receiver: Any) -> None:
        """``receiver`` absorbed, buffered or refused a new segment."""

    # -- protocol points ------------------------------------------------
    def segment_sent(self, subflow: Any, segment: Any) -> None:
        """``segment`` is about to enter ``subflow``'s forward link."""

    def ack_processed(self, subflow: Any, segment: Any) -> None:
        """``segment`` was newly acked and fully absorbed."""

    def rto_fired(self, subflow: Any, backoff_before: float) -> None:
        """A real timeout expired; the backoff has already doubled."""

    def fast_retransmit(self, subflow: Any, segment: Any) -> None:
        """Losing ``segment`` opened a recovery episode."""

    def idle_reset(self, subflow: Any, idle: float, old_cwnd: float) -> None:
        """RFC 5681 idle restart collapsed the window to IW."""

    def delivered(self, receiver: Any, payload: int, delay: float) -> None:
        """``payload`` bytes at ``receiver.expected_dsn`` go to the app."""

    def reinjection(
        self, conn: Any, dsn: int, payload: int, from_sf: int, to_sf: int, cause: str
    ) -> None:
        """The meta layer re-sends ``dsn`` on another subflow."""

    def ecf_decision(
        self, scheduler: Any, conn: Any, fastest: Any, second: Any,
        inputs: Any, wait: bool, waiting_before: bool, forced: bool,
    ) -> None:
        """Algorithm 1 was evaluated in full; hysteresis already updated."""

    def decision(self, scheduler: Any, conn: Any, choice: Any) -> None:
        """``scheduler.select(conn)`` answered ``choice`` (None: wait);
        nothing has been sent yet."""


_POINTS = tuple(
    name for name, member in vars(Probe).items()
    if callable(member) and not name.startswith("_")
)
_BRACKET_POINTS = ("run_begin", "run_end", "event_begin", "event_end")


def _each(handlers: List[Callable[..., None]]) -> Callable[..., None]:
    def point(*args: Any) -> None:
        for handler in handlers:
            handler(*args)

    return point


class _Fanout(Probe):
    """What :data:`ACTIVE` holds: every point bound straight to the
    subscribers that override it (one subscriber: its bound method, no
    indirection)."""

    def __init__(self, subscribers: List[Probe]) -> None:
        for name in _POINTS:
            handlers = [
                getattr(sub, name) for sub in subscribers
                if getattr(type(sub), name) is not getattr(Probe, name)
            ]
            if name == "timed" and len(handlers) > 1:
                raise ValueError("only one armed subscriber may wrap timed() sections")
            if handlers:
                setattr(self, name, handlers[0] if len(handlers) == 1 else _each(handlers))
        self.brackets_dispatch = any(name in vars(self) for name in _BRACKET_POINTS)


#: The armed probe, or ``None`` when nothing is armed.  Read it through
#: the module at each hook site so :func:`swap` takes effect everywhere.
ACTIVE: Optional[Probe] = None

_armed: Dict[str, Probe] = {}


def swap(role: str, subscriber: Optional[Probe]) -> Optional[Probe]:
    """Arm ``subscriber`` as ``role`` (``None`` disarms the role) and
    return the subscriber it displaced, so a scoped window restores with
    ``swap(role, previous)`` whatever other roles did in between."""
    global ACTIVE, _armed
    roles = dict(_armed)
    previous = roles.pop(role, None)
    if subscriber is not None:
        roles[role] = subscriber
    ordered = sorted(roles.values(), key=lambda sub: sub.order)
    ACTIVE = _Fanout(ordered) if ordered else None
    _armed = roles
    return previous


def armed(role: str) -> Optional[Probe]:
    """The subscriber currently armed as ``role``, if any."""
    return _armed.get(role)
