"""Scheduler interface and shared helpers.

A scheduler instance belongs to exactly one connection (several keep
per-connection state such as ECF's ``waiting`` flag), is attached via
:meth:`Scheduler.attach`, and is consulted by the one send loop,
:meth:`repro.mptcp.connection.MptcpConnection.try_send`, each time a
segment could be sent.

Contract:

* :meth:`select` and :meth:`next_segment` are the whole API and pure
  policy.  ``select`` returns a subflow for which ``can_send()`` is true
  (the connection raises ``RuntimeError`` otherwise), or ``None``
  meaning "send nothing now and wait for an ACK event";
  ``next_segment`` names the DSN range that subflow carries, which the
  connection books in its ledger (``ValueError`` for a range it cannot
  book).  The connection counts every ``select`` answer into
  :attr:`decisions` / :attr:`waits`; a scheduler never touches them.
* Returning ``None`` while *no* data is in flight anywhere would deadlock
  the connection; the provided schedulers never wait unless the subflow
  they are waiting for has segments in flight (so ACKs are coming).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Tuple

from repro.sim import probe as _probe
from repro.tcp.subflow import CWND_EPS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mptcp.connection import MptcpConnection
    from repro.tcp.subflow import Subflow


class Scheduler:
    """Base class for MPTCP path schedulers."""

    name = "base"

    __slots__ = ("conn", "uid", "decisions", "waits")

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = ("conn", "uid", "decisions", "waits")

    def __init__(self) -> None:
        self.conn: Optional["MptcpConnection"] = None
        self.uid = _probe.next_uid()
        self.decisions = 0
        self.waits = 0
        probe = _probe.ACTIVE
        if probe is not None:
            probe.adopt(self)

    def attach(self, conn: "MptcpConnection") -> None:
        """Bind this scheduler instance to its connection."""
        if self.conn is not None and self.conn is not conn:
            raise RuntimeError(
                f"scheduler {self.name!r} is already attached to another "
                "connection; create one scheduler per connection"
            )
        self.conn = conn

    # ------------------------------------------------------------------
    # The ranking helper shared by implementations
    # ------------------------------------------------------------------
    @staticmethod
    def fastest_and_sendable(
        conn: "MptcpConnection",
    ) -> Tuple[Optional["Subflow"], Optional["Subflow"]]:
        """The smallest-SRTT established subflow and the smallest-SRTT
        one that ``can_send()``, in one pass over ``conn.subflows``.

        ``sendable is fastest``: the fast path has room.  Otherwise
        ``sendable`` is the default scheduler's fallback among the others,
        or None when nothing can send.  Ties go to the lowest subflow id.
        RTT estimates are positive, so the strict ``<`` from an infinite
        start is also the finiteness test: a path in an outage (``inf``)
        or a NaN never wins, and None means no subflow has a finite
        estimate.
        """
        now = conn.sim.now
        fastest = sendable = None
        fastest_srtt = sendable_srtt = math.inf
        for sf in conn.subflows:
            srtt = sf.rtt.srtt or sf.srtt_or_default()
            # sendable_srtt >= fastest_srtt: the sendable are a subset.
            if srtt < sendable_srtt and now >= sf.established_at:
                if srtt < fastest_srtt:
                    fastest, fastest_srtt = sf, srtt
                # ``sf.can_send()`` on locals (establishment is tested
                # above); can_send() stays the definition, and
                # tests/test_properties.py::TestRankingProperties holds
                # this pick to it.
                if not sf._retx_queue and sf._in_flight + 1 <= sf.cwnd + CWND_EPS:
                    sendable, sendable_srtt = sf, srtt
        return fastest, sendable

    def select(self, conn: "MptcpConnection") -> Optional["Subflow"]:
        """Choose the subflow for the next segment (or None to wait)."""
        raise NotImplementedError

    def next_segment(
        self, conn: "MptcpConnection", subflow: "Subflow"
    ) -> Optional[Tuple[int, int]]:
        """The DSN range ``(dsn, payload)`` that ``subflow``, just picked by
        :meth:`select`, carries, or None for nothing.  The kernel's order:
        while the pass offers queued reinjections (``conn.reinjecting``),
        the oldest, unless ``subflow``'s own timeout queued it; else the
        lowest unassigned bytes, at most one MSS."""
        if conn.reinjecting:
            dsn = conn.reinject_queue[0]
            payload, _, queued_by = conn.assigned[dsn]
            return None if queued_by == subflow.sf_id else (dsn, payload)
        start, end = conn.unassigned_runs[0]
        mss = conn.config.mss
        return start, (end - start if end - start < mss else mss)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
