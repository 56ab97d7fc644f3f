"""The MPTCP default scheduler: smallest RTT first.

"The default path scheduler selects the subflow with the smallest RTT for
which there is available congestion window space for packet transmission"
(Section 2.1).  If that subflow is full it falls through to the next
smallest RTT, and so on; it never declines to send.  The pick is the
second answer of :meth:`Scheduler.fastest_and_sendable`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mptcp.connection import MptcpConnection
    from repro.tcp.subflow import Subflow


class MinRttScheduler(Scheduler):
    """Default MPTCP scheduler (lowest-RTT-first)."""

    name = "minrtt"

    __slots__ = ()

    def select(self, conn: "MptcpConnection") -> Optional["Subflow"]:
        return self.fastest_and_sendable(conn)[1]
