"""DAPS: delay-aware packet scheduler (Kuhn et al., ICC 2014).

DAPS builds a schedule that interleaves segments over the subflows in
proportion to their delay ratio so that they *arrive* in order: a subflow
with one tenth the RTT gets ten consecutive segments for every one sent on
the slow subflow.  As the paper under reproduction summarizes it, "DAPS
assigns traffic to each subflow inversely proportional to RTT".

Faithful to the original's weaknesses (and to the behaviour observed in
the paper's Section 5):

* the schedule is built from RTT/CWND snapshots and only refreshed when
  exhausted, so it reacts slowly to changing conditions ("DAPS strong
  dependency on the RTT ratio; an incorrect estimate ... results in
  unnecessary trials to inject traffic into the slow LTE subflow");
* it never declines to send: if the scheduled subflow has no window
  space, it sends on the other one rather than waiting, so it keeps the
  slow path busy even when that is counterproductive.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.core.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mptcp.connection import MptcpConnection
    from repro.tcp.subflow import Subflow


class DapsScheduler(Scheduler):
    """Delay-aware packet scheduling via a precomputed interleave."""

    name = "daps"

    __slots__ = ("_schedule",)

    def __init__(self) -> None:
        super().__init__()
        self._schedule: Deque[int] = deque()

    def select(self, conn: "MptcpConnection") -> Optional["Subflow"]:
        available = [sf for sf in conn.subflows if sf.can_send()]
        if not available:
            return None
        established = [sf for sf in conn.subflows if sf.established]
        if len(established) == 1:
            return established[0] if established[0].can_send() else None
        if not self._schedule:
            self._build_schedule(conn, established)
        # Walk the schedule for a subflow that can send right now;
        # DAPS never waits, so fall back to any available subflow.
        for _ in range(len(self._schedule)):
            sf_id = self._schedule[0]
            subflow = conn.subflows[sf_id]
            if subflow.can_send():
                self._schedule.popleft()
                return subflow
            self._schedule.rotate(-1)
        return min(available, key=lambda sf: sf.sf_id)

    def _build_schedule(self, conn: "MptcpConnection", established: list) -> None:
        """Snapshot RTTs/CWNDs and lay out one interleaved burst.

        Each subflow contributes its full CWND of slots; slots are ordered
        by projected arrival time assuming back-to-back transmission, which
        yields the inverse-RTT interleave DAPS is known for.
        """
        slots = []
        for sf in established:
            rtt = sf.srtt_or_default()
            cwnd = max(1, int(sf.cwnd))
            for slot_index in range(cwnd):
                arrival = rtt / 2.0 + slot_index * rtt / cwnd
                slots.append((arrival, sf.sf_id, slot_index))
        slots.sort()
        self._schedule = deque(sf_id for _, sf_id, _ in slots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DapsScheduler(pending_slots={len(self._schedule)})"
