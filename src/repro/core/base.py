"""Scheduler interface and shared helpers.

A scheduler instance belongs to exactly one connection (several keep
per-connection state such as ECF's ``waiting`` flag), is attached via
:meth:`Scheduler.attach`, and is consulted by
:meth:`repro.mptcp.connection.MptcpConnection.try_send` each time a segment
could be assigned.

Contract:

* :meth:`select` is the whole API and pure policy: it returns a subflow
  for which ``can_send()`` is true (the connection raises
  ``RuntimeError`` otherwise), or ``None`` meaning "send nothing now and
  wait for an ACK event".  The connection counts every answer into
  :attr:`decisions` / :attr:`waits`; a scheduler never touches them.
* Returning ``None`` while *no* data is in flight anywhere would deadlock
  the connection; the provided schedulers never wait unless the subflow
  they are waiting for has segments in flight (so ACKs are coming).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

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
    # Helpers shared by implementations
    # ------------------------------------------------------------------
    @staticmethod
    def available_subflows(conn: "MptcpConnection") -> List["Subflow"]:
        """Established subflows that can accept a new segment now."""
        return [sf for sf in conn.subflows if sf.can_send()]

    @staticmethod
    def established_subflows(conn: "MptcpConnection") -> List["Subflow"]:
        """Established subflows, regardless of window space."""
        return [sf for sf in conn.subflows if sf.established]

    @staticmethod
    def fastest(subflows: Iterable["Subflow"]) -> Optional["Subflow"]:
        """Smallest-SRTT subflow, in one pass.

        Ties go to the first in iteration order: the lowest subflow id
        for ``conn.subflows`` or a list filtered from it.  RTT estimates
        are positive, so the strict ``<`` from an infinite start is also
        the finiteness test: a path in an outage (``inf``) or a NaN never
        wins, and None means no subflow has a finite estimate.
        """
        best = None
        best_srtt = math.inf
        for sf in subflows:
            srtt = sf.rtt.srtt or sf.srtt_or_default()
            if srtt < best_srtt:
                best, best_srtt = sf, srtt
        return best

    @staticmethod
    def fastest_and_sendable(
        conn: "MptcpConnection",
    ) -> Tuple[Optional["Subflow"], Optional["Subflow"]]:
        """The smallest-SRTT established subflow and the smallest-SRTT
        one that ``can_send()``, ranked as :meth:`fastest` does, in one pass.

        ``sendable is fastest``: the fast path has room.  Otherwise
        ``sendable`` is the default scheduler's fallback among the others,
        or None when nothing can send.
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

    def duplicate_targets(
        self, conn: "MptcpConnection", chosen: "Subflow"
    ) -> List["Subflow"]:
        """Extra subflows that should carry a *copy* of the segment.

        Most schedulers never duplicate; the redundant scheduler overrides
        this to trade bandwidth for latency.  Every returned subflow must
        satisfy ``can_send()``: ``send_segment`` refuses any other.
        """
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
