"""BLEST: blocking estimation-based scheduler (Ferlin et al., 2016).

BLEST targets *sender-side head-of-line blocking*: if the MPTCP
connection-level send window fills up with segments that are in flight on
a slow subflow, the sender cannot queue new data and the fast subflow
starves.  When only a slower subflow has CWND space, BLEST estimates how
many bytes the fast subflow could transmit during one slow-subflow RTT::

    rounds = RTT_s / RTT_f
    X = MSS * (CWND_f + (rounds - 1) / 2) * rounds      # with linear growth

and declines to use the slow subflow when that projected traffic would not
fit in the remaining send-window space alongside the slow transmission::

    lambda * X > send_window - (in-flight + 1 segment on the slow path)

``lambda`` starts at 1 and is increased slightly every time blocking is
observed anyway (the connection became window-limited), making the
estimate more conservative -- this mirrors the published feedback loop.

The contrast with ECF (Section 5.1): BLEST reasons about *send-window
space*, ECF about *completion time of the data still queued*.  When the
send window is ample but the flow is about to go idle (the streaming
ON-OFF pattern), BLEST happily uses the slow path; ECF does not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mptcp.connection import MptcpConnection
    from repro.tcp.subflow import Subflow

#: Additive lambda adjustment applied when blocking is observed (per the
#: BLEST paper's feedback update).
LAMBDA_STEP = 0.05
LAMBDA_MAX = 3.0


class BlestScheduler(Scheduler):
    """Blocking-estimation scheduler."""

    name = "blest"

    __slots__ = ("lambda_", "_last_limited_seen")

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = ("lambda_", "_last_limited_seen")

    def __init__(self) -> None:
        super().__init__()
        self.lambda_ = 1.0
        self._last_limited_seen = 0

    def select(self, conn: "MptcpConnection") -> Optional["Subflow"]:
        self._update_lambda(conn)
        fastest, second = self.fastest_and_sendable(conn)
        if second is None:
            return None
        if second is fastest:
            return fastest
        if self._would_block(conn, fastest, second):
            return None
        return second

    def _would_block(
        self, conn: "MptcpConnection", fastest: "Subflow", slow: "Subflow"
    ) -> bool:
        rtt_f = max(fastest.srtt_or_default(), 1e-6)
        rtt_s = slow.srtt_or_default()
        rounds = max(1.0, rtt_s / rtt_f)
        projected_fast_bytes = conn.mss * (fastest.cwnd + (rounds - 1.0) / 2.0) * rounds
        slow_occupancy = (slow.outstanding_segments + 1) * conn.mss
        window = conn.effective_send_window
        return self.lambda_ * projected_fast_bytes > window - slow_occupancy

    def _update_lambda(self, conn: "MptcpConnection") -> None:
        """Grow lambda each time the connection was actually blocked."""
        limited_events = conn.reinjections
        if limited_events > self._last_limited_seen:
            self.lambda_ = min(LAMBDA_MAX, self.lambda_ + LAMBDA_STEP)
            self._last_limited_seen = limited_events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlestScheduler(lambda={self.lambda_:.2f})"
