"""Additional baseline schedulers not evaluated in the paper.

``roundrobin`` exposes the cost of ignoring RTT entirely (the
shared-bottleneck extension benchmark runs it).  ``mpdash`` is the
scheduler half of MP-DASH (Han et al., CoNEXT 2016), the deadline-aware
approach the paper's Section 7 contrasts ECF with; its cross-layer half
is :class:`repro.apps.dash.mpdash.MpDashPathManager`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.core.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mptcp.connection import MptcpConnection
    from repro.tcp.subflow import Subflow


class RoundRobinScheduler(Scheduler):
    """Cycle over available subflows irrespective of RTT."""

    name = "roundrobin"

    __slots__ = ("_next",)

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = ("_next",)

    def __init__(self) -> None:
        super().__init__()
        self._next = 0

    def select(self, conn: "MptcpConnection") -> Optional["Subflow"]:
        n = len(conn.subflows)
        for offset in range(n):
            subflow = conn.subflows[(self._next + offset) % n]
            if subflow.can_send():
                self._next = (subflow.sf_id + 1) % n
                return subflow
        return None


class MpDashScheduler(Scheduler):
    """Preferred-path-first scheduler with a cellular activation gate.

    Subflow 0 (the primary interface) is always admissible; the other
    subflows carry data only while ``cellular_active`` is set by the path
    manager.  Within the admissible set, lowest-RTT-first applies.
    """

    name = "mpdash"

    __slots__ = ("cellular_active",)

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = ("cellular_active",)

    def __init__(self) -> None:
        super().__init__()
        self.cellular_active = True  # safe default before any requirement

    def select(self, conn: "MptcpConnection") -> Optional["Subflow"]:
        if self.cellular_active:
            return self.fastest_and_sendable(conn)[1]
        primary = conn.subflows[0]
        # A path in an outage (an infinite or NaN estimate) is not sent on.
        if primary.can_send() and primary.srtt_or_default() < math.inf:
            return primary
        return None
