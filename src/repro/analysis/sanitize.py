"""Runtime sanitizer: protocol invariants checked while the simulator runs.

The simulator's credibility rests on invariants nothing in normal
operation enforces: congestion windows never collapse below one segment,
data sequence numbers only move forward, link queues conserve bytes, the
event loop dispatches in non-decreasing time order.  An aggressive
refactor can silently break any of them and every downstream figure with
it.  This module is the guardrail: :class:`Checks` subscribes to the
state-audit points of the probe seam (:mod:`repro.sim.probe`), which the
protocol layers skip in one ``is None`` test unless something is armed.

Enable with ``REPRO_SANITIZE=1`` in the environment (read at import
time, so ``REPRO_SANITIZE=1 pytest`` sanitizes the whole suite), the
CLI's ``--sanitize`` flag, or programmatically::

    from repro.analysis import sanitize
    sanitize.enable()      # or disable(); both are idempotent

A failed check raises :class:`SanitizerError` (an ``AssertionError``
subclass, so ``pytest.raises(AssertionError)`` also catches it) naming
the object and the violated invariant.  When the flight recorder is
also armed (``REPRO_OBS=1``, see :mod:`repro.obs.flight`), the executor
catches the escaping error and snapshots a postmortem bundle -- the
recent event tail, trace tails, and perf counters leading up to the
violation -- before re-raising it.

Apart from the seam this module imports nothing from the package at
run time; the audited objects are read duck-typed.
"""

from __future__ import annotations

import itertools
import math
import weakref
from typing import TYPE_CHECKING, Any

from repro.sim import probe as _probe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mptcp.connection import MptcpConnection
    from repro.mptcp.receiver import MptcpReceiver
    from repro.net.link import Link
    from repro.sim.engine import Simulator, Timer
    from repro.tcp.subflow import Subflow

#: Tolerance for float window arithmetic (cwnd is a float in segments).
_EPS = 1e-9

#: Environment variable that turns the sanitizer on at import time.
ENV_VAR = "REPRO_SANITIZE"

#: This module's role on the probe seam.
_ROLE = "sanitize"


class SanitizerError(AssertionError):
    """A protocol invariant was violated at runtime."""


def _fail(subject: Any, invariant: str, detail: str) -> None:
    raise SanitizerError(f"{subject!r}: {invariant}: {detail}")


class Checks(_probe.Probe):
    """The invariant checks, one method per audit point of the seam.

    Instances are stateless except for per-object monotonicity floors,
    kept here keyed (weakly) by the checked object, so one ``Checks``
    instance can watch any number of simultaneous simulations and a
    world rebuilt by :mod:`repro.sim.snapshot` starts without a floor.
    """

    #: Ahead of every recorder: a broken invariant raises before the
    #: record of the same point is emitted.
    order = 0

    def __init__(self) -> None:
        self._dsn_floor: "weakref.WeakKeyDictionary[MptcpReceiver, int]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # sim.engine
    # ------------------------------------------------------------------
    def event_begin(self, sim: "Simulator", time: float, timer: "Timer") -> None:
        """Event times leaving the heap must never run backwards."""
        if time < sim.now:
            _fail(
                "Simulator",
                "non-decreasing event dispatch",
                f"popped event at t={time!r} while clock is at {sim.now!r}",
            )

    # ------------------------------------------------------------------
    # tcp.subflow / tcp.cc
    # ------------------------------------------------------------------
    def audit_cwnd(self, subflow: "Subflow") -> None:
        """Window sanity after any congestion-controller action."""
        if subflow.cwnd < 1.0 - _EPS:
            _fail(subflow, "cwnd >= 1 MSS", f"cwnd={subflow.cwnd!r}")
        if subflow.cwnd > subflow.max_cwnd + _EPS:
            _fail(
                subflow,
                "cwnd <= max_cwnd",
                f"cwnd={subflow.cwnd!r} > max_cwnd={subflow.max_cwnd!r}",
            )
        if not subflow.ssthresh > 0.0:
            _fail(subflow, "ssthresh > 0", f"ssthresh={subflow.ssthresh!r}")

    def audit_subflow(self, subflow: "Subflow") -> None:
        """Full sequence/flight bookkeeping audit (after ACK or RTO)."""
        self.audit_cwnd(subflow)
        if not 0 <= subflow.una <= subflow.next_seq:
            _fail(
                subflow,
                "0 <= una <= next_seq",
                f"una={subflow.una}, next_seq={subflow.next_seq}",
            )
        in_flight = subflow.flight
        if in_flight < 0:
            _fail(subflow, "flight >= 0", f"flight={in_flight}")
        outstanding = subflow._outstanding
        actual = sum(1 for seg in outstanding.values() if seg.in_flight)
        if in_flight != actual:
            _fail(
                subflow,
                "flight counter matches segment flags",
                f"counter={in_flight}, flagged={actual}",
            )
        if in_flight > len(outstanding):
            _fail(
                subflow,
                "flight <= outstanding segments",
                f"flight={in_flight}, outstanding={len(outstanding)}",
            )
        # What lets handle_ack advance una only for an ACK at una.
        head = outstanding.get(subflow.una)
        if head is not None and head.acked:
            _fail(subflow, "the segment at una is unacked", f"una={subflow.una}")
        # What lets handle_ack remove() a lost segment without first
        # scanning the queue for it.
        queued = {seg.seq for seg in subflow._retx_queue}
        for seg in outstanding.values():
            if not seg.acked and seg.lost != (seg.seq in queued):
                _fail(
                    subflow,
                    "unacked segment: lost <=> queued for retransmission",
                    f"seq={seg.seq}, lost={seg.lost}, queued={seg.seq in queued}",
                )

    # ------------------------------------------------------------------
    # mptcp.connection
    # ------------------------------------------------------------------
    def audit_conn_una(self, conn: "MptcpConnection", data_ack: int) -> None:
        """DATA_ACKs only move the connection-level una forward."""
        if data_ack < conn.conn_una:
            _fail(
                conn,
                "data-sequence monotonicity",
                f"DATA_ACK {data_ack} < conn_una {conn.conn_una}",
            )
        if data_ack > conn.next_dsn:
            _fail(
                conn,
                "DATA_ACK within assigned sequence space",
                f"DATA_ACK {data_ack} > next_dsn {conn.next_dsn}",
            )

    def audit_connection(self, conn: "MptcpConnection") -> None:
        """Connection-level buffer accounting after a scheduling pass."""
        if conn.unassigned_bytes < 0:
            _fail(conn, "unassigned_bytes >= 0", f"{conn.unassigned_bytes}")
        if not 0 <= conn.conn_una <= conn.next_dsn:
            _fail(
                conn,
                "0 <= conn_una <= next_dsn",
                f"conn_una={conn.conn_una}, next_dsn={conn.next_dsn}",
            )
        if conn.next_dsn + conn.unassigned_bytes > conn.total_written:
            _fail(
                conn,
                "assigned + unassigned <= written",
                f"next_dsn={conn.next_dsn} + unassigned={conn.unassigned_bytes}"
                f" > written={conn.total_written}",
            )

    # ------------------------------------------------------------------
    # mptcp.receiver
    # ------------------------------------------------------------------
    def audit_receiver(self, receiver: "MptcpReceiver") -> None:
        """Reorder-buffer bounds and delivery accounting."""
        buffered = receiver._buffered
        byte_sum = sum(payload for payload, _ in buffered.values())
        if byte_sum != receiver.buffered_bytes:
            _fail(
                receiver,
                "reorder-buffer byte conservation",
                f"counter={receiver.buffered_bytes}, actual={byte_sum}",
            )
        if buffered and min(buffered) <= receiver.expected_dsn:
            _fail(
                receiver,
                "buffered DSNs beyond the delivery point",
                f"min buffered={min(buffered)}, expected={receiver.expected_dsn}",
            )
        if receiver.buffered_bytes > receiver.recv_buffer_bytes:
            _fail(
                receiver,
                "reorder buffer within the advertised capacity",
                f"buffered={receiver.buffered_bytes}"
                f" > capacity={receiver.recv_buffer_bytes}",
            )
        if buffered:
            # Buffered chunks must be pairwise disjoint: the sender assigns
            # DSN ranges contiguously, so overlap means double-assignment.
            edge = receiver.expected_dsn
            for dsn in sorted(buffered):
                if dsn < edge:
                    _fail(
                        receiver,
                        "buffered DSN ranges are disjoint",
                        f"chunk at {dsn} overlaps previous range ending {edge}",
                    )
                edge = dsn + buffered[dsn][0]
        if receiver.delivered_bytes != receiver.expected_dsn:
            _fail(
                receiver,
                "delivered bytes equal the in-order DSN frontier",
                f"delivered={receiver.delivered_bytes}, expected={receiver.expected_dsn}",
            )
        floor = self._dsn_floor.get(receiver, 0)
        if receiver.expected_dsn < floor:
            _fail(
                receiver,
                "expected DSN never decreases",
                f"expected={receiver.expected_dsn} < previously {floor}",
            )
        self._dsn_floor[receiver] = receiver.expected_dsn

    # ------------------------------------------------------------------
    # net.link
    # ------------------------------------------------------------------
    def audit_link(self, link: "Link") -> None:
        """Packet and byte conservation across the queue/transmitter.

        The link keeps its queue counters lazily, so they are held
        against the FIFO of admitted ``(finish, packet, on_delivery)``
        entries itself: a packet waits while the one ahead of it has not
        finished, and the transmitter is busy until the last finish.
        """
        now = link.sim.now
        fifo = link._fifo
        waiting = [
            entry[1].size
            for ahead, entry in zip(fifo, itertools.islice(fifo, 1, None))
            if ahead[0] > now
        ]
        depth, queued = link.queue_depth, link.queued_bytes
        if (depth, queued) != (len(waiting), sum(waiting)):
            _fail(
                link,
                "queue byte conservation",
                f"counters: {depth} packet(s), {queued} bytes; "
                f"FIFO: {len(waiting)} packet(s), {sum(waiting)} bytes",
            )
        if not 0 <= queued <= link.queue_bytes:
            _fail(
                link,
                "0 <= queued_bytes <= capacity",
                f"queued={queued}, capacity={link.queue_bytes}",
            )
        last_finish = fifo[-1][0] if fifo else -math.inf
        if link.busy != (last_finish > now):
            _fail(
                link,
                "busy until the last admitted packet finishes",
                f"busy={link.busy}, last finish={last_finish!r}, now={now!r}",
            )
        admitted = len(fifo)
        stats = link.stats
        accounted = (
            stats.packets_delivered
            + stats.packets_dropped
            + admitted
            + link._jittering
        )
        if stats.packets_in != accounted:
            _fail(
                link,
                "packet conservation",
                f"in={stats.packets_in}, accounted={accounted} "
                f"(delivered={stats.packets_delivered}, dropped={stats.packets_dropped}, "
                f"admitted={admitted}, jittering={link._jittering})",
            )


def enable() -> None:
    """Turn the sanitizer on (idempotent)."""
    if _probe.armed(_ROLE) is None:
        _probe.swap(_ROLE, Checks())


def disable() -> None:
    """Turn the sanitizer off (idempotent)."""
    _probe.swap(_ROLE, None)


def enabled() -> bool:
    """True while sanitizer checks are active."""
    return _probe.armed(_ROLE) is not None


if _probe.env_on(ENV_VAR):
    enable()
