"""Structured event log: typed protocol records for trace-level checking.

The trace recorder (:mod:`repro.sim.trace`) collects ``(time, value)``
series for plotting; this module records *what happened* -- typed records
of every send, ACK, timeout, idle restart, delivery, and scheduler
decision, each carrying the inputs the decision was made from.  The
temporal property checker (:mod:`repro.analysis.check`) and the reference
oracles (:mod:`repro.analysis.reference`) consume these logs to verify
the paper's semantics, not just endpoint metrics.

Recording is a subscriber on the probe seam (:mod:`repro.sim.probe`):
the protocol layers report a point (``probe.segment_sent(self, segment)``)
and the records are built *here*, so the transport holds no event
construction and pays one ``is None`` test per point while nothing is
armed.  Arm a fresh log with :func:`start` / :func:`stop`, or the
:func:`recording` context manager::

    from repro.analysis import events

    with events.recording() as log:
        run_bulk(spec)
    decisions = log.of_kind(events.EcfDecision)

Objects that appear in events (subflows, receivers, schedulers) carry a
process-unique ``uid`` from :func:`next_uid`, so records from several
simultaneous connections (or sequential connections reusing subflow ids,
as the web workload does) never alias in one log.

Apart from the seam and the wire codec this module imports nothing from
the package; the subjects of the probe points are read duck-typed.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, ClassVar, Deque, Dict, Iterator, List, Optional, Tuple, Type, TypeVar

from repro.sim import probe as _probe
from repro.sim.codec import Tagged, decode_tagged
from repro.sim.probe import next_uid  # noqa: F401 -- re-exported: events.next_uid is public

#: This module's role on the probe seam: one active log at a time.
_ROLE = "events"


# ----------------------------------------------------------------------
# Record types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Event(Tagged):
    """Base record: every event carries its simulated timestamp.

    Its wire form (:mod:`repro.sim.codec`) is ``{"kind": <class name>,
    **fields}``.
    """

    kind: ClassVar[str] = "Event"

    t: float

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__


@dataclass(frozen=True)
class SegmentSent(Event):
    """A data segment left a subflow (original or retransmission)."""

    sf_uid: int
    sf_id: int
    seq: int
    dsn: int
    payload: int
    retransmitted: bool
    cwnd: float
    in_flight: int


@dataclass(frozen=True)
class AckProcessed(Event):
    """A newly acknowledged segment was absorbed by the sender.

    ``cwnd``, ``in_recovery``, and ``backoff`` are the values *after* the
    full ACK processing pass (controller action, recovery bookkeeping,
    loss detection), which is what the temporal properties reason about.
    """

    sf_uid: int
    sf_id: int
    seq: int
    rtt_sampled: bool
    cwnd: float
    in_recovery: bool
    backoff: float


@dataclass(frozen=True)
class RtoFired(Event):
    """A retransmission timeout actually expired (not a lazy re-arm)."""

    sf_uid: int
    sf_id: int
    backoff_before: float
    backoff_after: float
    rto: float
    outstanding: int


@dataclass(frozen=True)
class FastRetransmit(Event):
    """Dupack-driven loss recovery started (one per recovery episode)."""

    sf_uid: int
    sf_id: int
    seq: int
    recovery_point: int


@dataclass(frozen=True)
class IdleReset(Event):
    """RFC 5681 idle restart collapsed a subflow's window to IW."""

    sf_uid: int
    sf_id: int
    idle: float
    rto: float
    old_cwnd: float
    new_cwnd: float
    ssthresh: float


@dataclass(frozen=True)
class Delivered(Event):
    """The receiver handed one in-order chunk to the application."""

    recv_uid: int
    dsn: int
    payload: int
    delay: float


@dataclass(frozen=True)
class Reinjection(Event):
    """The meta layer re-sent a DSN on another subflow."""

    conn: str
    dsn: int
    payload: int
    from_sf: int
    to_sf: int
    cause: str  # "rto" or "opportunistic"


@dataclass(frozen=True)
class EcfDecision(Event):
    """One full evaluation of ECF's Algorithm 1 (fast subflow was full).

    Records every input the two inequalities read, the actual threshold
    the implementation computed, and the waiting state before and after,
    so the decision can be replayed offline by the reference model.
    ``decision`` is ``"wait"`` (send nothing, wait for the fast subflow)
    or ``"slow"`` (send on the second-fastest subflow).
    """

    sched_uid: int
    decision: str
    fastest_uid: int
    fastest_sf: int
    second_uid: int
    second_sf: int
    k_segments: float
    cwnd_f: float
    cwnd_s: float
    rtt_f: float
    rtt_s: float
    delta: float
    beta: float
    use_second_inequality: bool
    waiting_before: bool
    waiting_after: bool
    n_rounds: float
    threshold: float


@dataclass(frozen=True)
class Decision(Event):
    """One ``select`` answer of any scheduler, as the connection saw it.

    ``available`` is every subflow that could take a segment at that
    instant, with its SRTT estimate; ``chosen_sf`` is None for a wait.
    """

    sched_uid: int
    scheduler: str
    chosen_sf: Optional[int]
    available: Tuple[Tuple[int, float], ...]  # (sf_id, srtt) pairs


E = TypeVar("E", bound=Event)

#: Registry of every concrete record type by its ``kind`` name; the wire
#: format of ``to_dict`` / :func:`event_from_dict`.  Exporters iterate
#: this to stay exhaustive, and the round-trip tests assert it is.
EVENT_TYPES: Dict[str, Type[Event]] = {
    cls.kind: cls
    for cls in (
        SegmentSent,
        AckProcessed,
        RtoFired,
        FastRetransmit,
        IdleReset,
        Delivered,
        Reinjection,
        EcfDecision,
        Decision,
    )
}


def event_from_dict(data: Dict[str, Any]) -> Event:
    """Rebuild a typed record from its ``to_dict`` form (lossless).

    >>> event_from_dict(Delivered(t=1.5, recv_uid=7, dsn=0,
    ...                           payload=1448, delay=0.25).to_dict())
    Delivered(t=1.5, recv_uid=7, dsn=0, payload=1448, delay=0.25)
    """
    return decode_tagged("event", EVENT_TYPES, data)


# ----------------------------------------------------------------------
# The log
# ----------------------------------------------------------------------
class EventLog:
    """Append-only store of typed event records.

    Parameters
    ----------
    capacity:
        Optional bound on retained events; once full the *oldest* records
        are dropped and counted in :attr:`dropped`.  Capped logs are for
        interactive inspection -- the property checker refuses partial
        logs by default, since a missing record can fake a violation.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.dropped = 0
        self._events: Deque[Event] = deque(maxlen=capacity)

    def emit(self, event: Event) -> None:
        """Append one record (dropping the oldest when at capacity)."""
        if self.capacity is not None and len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def of_kind(self, kind: Type[E]) -> List[E]:
        """All records of one type, in emission order."""
        return [e for e in self._events if type(e) is kind]

    def events(self) -> List[Event]:
        """All records, in emission order."""
        return list(self._events)

    def tail(self, n: int) -> List[Event]:
        """The most recent ``n`` records (all of them if ``n`` exceeds
        the current length), in emission order."""
        if n <= 0:
            return []
        if n >= len(self._events):
            return list(self._events)
        return list(self._events)[-n:]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds: Dict[str, int] = {}
        for event in self._events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        return f"EventLog(n={len(self._events)}, dropped={self.dropped}, kinds={kinds})"


class _Tap(_probe.Probe):
    """The seam subscriber feeding one :class:`EventLog`: each protocol
    point becomes one typed record."""

    def __init__(self, log: EventLog) -> None:
        self.log = log
        self.emit = log.emit

    def segment_sent(self, subflow: Any, segment: Any) -> None:
        self.emit(SegmentSent(
            t=subflow.sim.now,
            sf_uid=subflow.uid,
            sf_id=subflow.sf_id,
            seq=segment.seq,
            dsn=segment.dsn,
            payload=segment.payload,
            retransmitted=segment.retransmitted,
            cwnd=subflow.cwnd,
            in_flight=subflow.flight,
        ))

    def ack_processed(self, subflow: Any, segment: Any) -> None:
        self.emit(AckProcessed(
            t=subflow.sim.now,
            sf_uid=subflow.uid,
            sf_id=subflow.sf_id,
            seq=segment.seq,
            rtt_sampled=not segment.retransmitted,
            cwnd=subflow.cwnd,
            in_recovery=subflow._in_recovery,
            backoff=subflow._rto_backoff,
        ))

    def rto_fired(self, subflow: Any, backoff_before: float) -> None:
        self.emit(RtoFired(
            t=subflow.sim.now,
            sf_uid=subflow.uid,
            sf_id=subflow.sf_id,
            backoff_before=backoff_before,
            backoff_after=subflow._rto_backoff,
            rto=subflow.rtt.rto,
            outstanding=subflow.outstanding_segments,
        ))

    def fast_retransmit(self, subflow: Any, segment: Any) -> None:
        self.emit(FastRetransmit(
            t=subflow.sim.now,
            sf_uid=subflow.uid,
            sf_id=subflow.sf_id,
            seq=segment.seq,
            recovery_point=subflow._recovery_point,
        ))

    def idle_reset(self, subflow: Any, idle: float, old_cwnd: float) -> None:
        self.emit(IdleReset(
            t=subflow.sim.now,
            sf_uid=subflow.uid,
            sf_id=subflow.sf_id,
            idle=idle,
            rto=subflow.rtt.rto,
            old_cwnd=old_cwnd,
            new_cwnd=subflow.cwnd,
            ssthresh=subflow.ssthresh,
        ))

    def delivered(self, receiver: Any, payload: int, delay: float) -> None:
        self.emit(Delivered(
            t=receiver.sim.now,
            recv_uid=receiver.uid,
            dsn=receiver.expected_dsn,
            payload=payload,
            delay=delay,
        ))

    def reinjection(
        self, conn: Any, dsn: int, payload: int, from_sf: int, to_sf: int, cause: str
    ) -> None:
        self.emit(Reinjection(
            t=conn.sim.now,
            conn=conn.name,
            dsn=dsn,
            payload=payload,
            from_sf=from_sf,
            to_sf=to_sf,
            cause=cause,
        ))

    def ecf_decision(
        self, scheduler: Any, conn: Any, fastest: Any, second: Any,
        inputs: Any, wait: bool, waiting_before: bool,
    ) -> None:
        self.emit(EcfDecision(
            t=conn.sim.now,
            sched_uid=scheduler.uid,
            decision="wait" if wait else "slow",
            fastest_uid=fastest.uid,
            fastest_sf=fastest.sf_id,
            second_uid=second.uid,
            second_sf=second.sf_id,
            k_segments=inputs.k_segments,
            cwnd_f=inputs.cwnd_f,
            cwnd_s=inputs.cwnd_s,
            rtt_f=inputs.rtt_f,
            rtt_s=inputs.rtt_s,
            delta=inputs.delta,
            beta=scheduler.beta,
            use_second_inequality=scheduler.use_second_inequality,
            waiting_before=waiting_before,
            waiting_after=scheduler.waiting,
            n_rounds=inputs.n_rounds,
            threshold=inputs.threshold,
        ))

    def decision(self, scheduler: Any, conn: Any, choice: Any) -> None:
        # Exact: select() mutates no subflow, and nothing was sent yet.
        self.emit(Decision(
            t=conn.sim.now,
            sched_uid=scheduler.uid,
            scheduler=scheduler.name,
            chosen_sf=None if choice is None else choice.sf_id,
            available=tuple(
                (sf.sf_id, sf.srtt_or_default()) for sf in conn.subflows if sf.can_send()
            ),
        ))


def _arm(log: Optional[EventLog]) -> Optional[EventLog]:
    """Make ``log`` the active one (``None``: none); returns the log it
    displaced."""
    previous = _probe.swap(_ROLE, None if log is None else _Tap(log))
    return previous.log if isinstance(previous, _Tap) else None


def start(capacity: Optional[int] = None) -> EventLog:
    """Install (and return) a fresh active log, replacing any current one."""
    log = EventLog(capacity=capacity)
    _arm(log)
    return log


def stop() -> Optional[EventLog]:
    """Deactivate logging; returns the log that was active, if any."""
    return _arm(None)


def current() -> Optional[EventLog]:
    """The active log, or ``None`` when event logging is off."""
    tap = _probe.armed(_ROLE)
    return tap.log if isinstance(tap, _Tap) else None


def active() -> bool:
    """True while an event log is installed."""
    return _probe.armed(_ROLE) is not None


@contextmanager
def recording(capacity: Optional[int] = None) -> Iterator[EventLog]:
    """Event-log a block of code; restores the previous log on exit."""
    log = EventLog(capacity=capacity)
    previous = _arm(log)
    try:
        yield log
    finally:
        _arm(previous)
