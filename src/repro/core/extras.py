"""Additional baseline schedulers not evaluated in the paper.

These are useful for calibration and ablation: ``roundrobin`` exposes the
cost of ignoring RTT entirely, ``redundant`` trades goodput for latency by
duplicating segments across paths (the policy the upstream MPTCP tree
later shipped under the same name), and ``primary`` turns the connection
into plain single-path TCP on the primary interface (what a non-MPTCP
client would get).  ``mpdash`` is the scheduler half of MP-DASH (Han et
al., CoNEXT 2016), the deadline-aware approach the paper's Section 7
contrasts ECF with; its cross-layer half is
:class:`repro.apps.dash.mpdash.MpDashPathManager`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

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


class RedundantScheduler(Scheduler):
    """Duplicate every segment on every open subflow.

    The classic latency-over-bandwidth scheduler (adopted later by the
    upstream MPTCP tree as ``redundant``): each segment rides the
    lowest-RTT open subflow *and* a copy rides every other open subflow,
    so delivery latency is the minimum across paths at the cost of
    goodput.  The receiver's DSN-level dedup absorbs the copies.
    """

    name = "redundant"

    __slots__ = ()

    def select(self, conn: "MptcpConnection") -> Optional["Subflow"]:
        """New data rides only the lowest-RTT subflow.

        Slower subflows never receive fresh data of their own -- they
        exist to carry copies -- so the connection's progress is pinned to
        the fastest path, which is the point of the policy.
        """
        fastest, sendable = self.fastest_and_sendable(conn)
        if fastest is not None and sendable is fastest:
            return fastest
        return None

    def duplicate_targets(
        self, conn: "MptcpConnection", chosen: "Subflow"
    ) -> List["Subflow"]:
        return [
            sf for sf in conn.subflows
            if sf is not chosen and sf.can_send()
        ]


class PrimaryOnlyScheduler(Scheduler):
    """Single-path TCP: only the primary subflow ever carries data."""

    name = "primary"

    __slots__ = ()

    def select(self, conn: "MptcpConnection") -> Optional["Subflow"]:
        primary = conn.subflows[0]
        if primary.can_send():
            return primary
        return None


class MpDashScheduler(Scheduler):
    """Preferred-path-first scheduler with a cellular activation gate.

    Subflow 0 (the primary interface) is always admissible; the other
    subflows carry data only while ``cellular_active`` is set by the path
    manager.  Within the admissible set, lowest-RTT-first applies.
    """

    name = "mpdash"

    __slots__ = ("cellular_active", "activations", "deactivations")

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = ("cellular_active", "activations", "deactivations")

    def __init__(self) -> None:
        super().__init__()
        self.cellular_active = True  # safe default before any requirement
        self.activations = 0
        self.deactivations = 0

    def set_cellular(self, active: bool) -> None:
        if active and not self.cellular_active:
            self.activations += 1
        if not active and self.cellular_active:
            self.deactivations += 1
        self.cellular_active = active

    def select(self, conn: "MptcpConnection") -> Optional["Subflow"]:
        admissible = conn.subflows if self.cellular_active else conn.subflows[:1]
        return self.fastest([sf for sf in admissible if sf.can_send()])
