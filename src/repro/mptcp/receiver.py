"""Connection-level receiver: DSN reassembly and out-of-order delay.

MPTCP preserves ordering within a subflow but not across subflows, so the
receiver buffers segments that arrive ahead of the connection-level
expected DSN and releases them once the gap fills.  The time a segment
spends in that buffer is the paper's *out-of-order delay* (Section 5.2.4):
"delaying delivery of arrived packets to the application layer".

The receiver also advertises a receive window (buffered-but-undelivered
bytes count against it) and exposes the cumulative DATA_ACK the sender's
penalization logic relies on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.packet import Packet
from repro.sim import probe as _probe
from repro.sim.engine import Simulator


class MptcpReceiver:
    """Reassembles the DSN stream and measures reordering delay.

    Parameters
    ----------
    sim: the simulator (for timestamps).
    recv_buffer_bytes: advertised receive buffer capacity.
    on_deliver: ``on_deliver(nbytes)`` called for every in-order chunk
        handed to the application, in DSN order.
    record_delays: collect the per-packet out-of-order delay samples
        (disable in huge sweeps to save memory).
    """

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = (
        "sim",
        "uid",
        "recv_buffer_bytes",
        "on_deliver",
        "record_delays",
        "expected_dsn",
        "delivered_bytes",
        "duplicate_packets",
        "window_drops",
        "ooo_delays",
        "max_buffered_bytes",
        "last_arrival_by_subflow",
        "_buffered",
        "_buffered_bytes",
    )

    def __init__(
        self,
        sim: Simulator,
        recv_buffer_bytes: int = 4_000_000,
        on_deliver: Optional[Callable[[int], None]] = None,
        record_delays: bool = True,
    ) -> None:
        if recv_buffer_bytes <= 0:
            raise ValueError(f"recv_buffer_bytes must be positive, got {recv_buffer_bytes!r}")
        self.sim = sim
        self.uid = _probe.next_uid()
        self.recv_buffer_bytes = int(recv_buffer_bytes)
        self.on_deliver = on_deliver
        self.record_delays = record_delays

        self.expected_dsn = 0
        self.delivered_bytes = 0
        self.duplicate_packets = 0
        #: Out-of-order segments discarded because buffering them would
        #: exceed ``recv_buffer_bytes``.  The subflow-level RTO recovers
        #: the data later, exactly like real out-of-window TCP data.
        self.window_drops = 0
        self.ooo_delays: List[float] = []
        self.max_buffered_bytes = 0
        #: Arrival time of the most recent data packet per subflow id
        #: (drives the Fig 5 "last packet time difference" analysis).
        self.last_arrival_by_subflow: Dict[int, float] = {}

        self._buffered: Dict[int, Tuple[int, float]] = {}
        self._buffered_bytes = 0

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def on_data(self, packet: Packet) -> bool:
        """Absorb one data segment (possibly a duplicate or out of order).

        Returns True when the segment was absorbed (delivered, buffered,
        or recognized as an already-held duplicate) and should be acked at
        the subflow level; False when it was dropped for lack of receive
        buffer space, in which case the caller must *not* ack it so the
        sender's RTO eventually retransmits the data.
        """
        now = self.sim.now
        self.last_arrival_by_subflow[packet.subflow_id] = now
        dsn, payload = packet.dsn, packet.payload
        if dsn < self.expected_dsn or dsn in self._buffered:
            # The sender assigns DSN ranges contiguously and retransmits
            # them verbatim, so a stale segment is always a whole already
            # delivered (or already buffered) chunk -- a segment straddling
            # the delivery edge cannot occur and would silently lose its
            # unseen tail if treated as a duplicate.  Enforce the model
            # invariant here (cheap: duplicates are the rare path).
            if dsn < self.expected_dsn < dsn + payload:
                raise ValueError(
                    f"segment [{dsn}, {dsn + payload}) straddles the delivery "
                    f"edge expected_dsn={self.expected_dsn}; the sender never "
                    "emits overlapping DSN ranges"
                )
            self.duplicate_packets += 1
            return True
        absorbed = True
        if dsn == self.expected_dsn:
            self._deliver(payload, delay=0.0)
            if self._buffered:
                self._drain_buffer()
        elif self._buffered_bytes + payload > self.recv_buffer_bytes:
            # Out-of-window data: the advertised buffer cannot hold it.
            # Real receivers discard such segments; modeling an infinite
            # buffer here would hide flow-control bugs on the sender side.
            self.window_drops += 1
            absorbed = False
        else:
            self._buffered[dsn] = (payload, now)
            self._buffered_bytes += payload
            if self._buffered_bytes > self.max_buffered_bytes:
                self.max_buffered_bytes = self._buffered_bytes
        probe = _probe.ACTIVE
        if probe is not None:
            probe.audit_receiver(self)
        return absorbed

    def _drain_buffer(self) -> None:
        """Deliver the buffered run the edge reaches (something is buffered)."""
        now = self.sim.now
        while self.expected_dsn in self._buffered:
            payload, arrived = self._buffered.pop(self.expected_dsn)
            self._buffered_bytes -= payload
            self._deliver(payload, delay=now - arrived)

    def _deliver(self, payload: int, delay: float) -> None:
        probe = _probe.ACTIVE
        if probe is not None:
            probe.delivered(self, payload, delay)
        self.expected_dsn += payload
        self.delivered_bytes += payload
        if self.record_delays:
            self.ooo_delays.append(delay)
        if self.on_deliver is not None:
            self.on_deliver(payload)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def data_ack(self) -> int:
        """Cumulative connection-level acknowledgement (next expected DSN)."""
        return self.expected_dsn

    @property
    def recv_window(self) -> int:
        """Advertised window: capacity minus bytes parked out of order."""
        return max(0, self.recv_buffer_bytes - self._buffered_bytes)

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently held waiting for a DSN gap to fill."""
        return self._buffered_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MptcpReceiver(expected={self.expected_dsn}, "
            f"buffered={self._buffered_bytes}B/{len(self._buffered)}seg)"
        )
