"""The MPTCP meta-socket.

:class:`MptcpConnection` owns one subflow per path and moves application
bytes through them:

* the server application calls :meth:`write`; bytes join the
  **connection-level send buffer** (ECF's ``k`` is exactly the part of this
  buffer not yet assigned to any subflow);
* whenever window space exists, the configured **path scheduler** is asked
  which subflow carries the next segment; returning ``None`` means "wait"
  (the ECF/BLEST waiting decision);
* assignment is bounded by the connection-level send window and the
  receiver's advertised window;
* when the connection is window-limited, the **opportunistic
  retransmission + penalization** mechanism of Raiciu et al. (NSDI'12) --
  enabled by default in the paper's experiments -- reinjects the blocking
  segment on a faster subflow and halves the slow subflow's window;
* the client-side :class:`~repro.mptcp.receiver.MptcpReceiver` reassembles
  the DSN stream and feeds DATA_ACKs back on every subflow ACK.

Connection establishment is modelled: the primary subflow (WiFi in the
paper -- "the default in Android") carries data after one handshake RTT,
and each secondary subflow joins one additional handshake later, which is
why short transfers rarely use the secondary path (Section 5.4).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Set

from repro.net.packet import MSS, Packet
from repro.net.path import Path
from repro.mptcp.receiver import MptcpReceiver
from repro.sim import probe as _probe
from repro.sim.engine import Simulator
from repro.tcp.cc.base import CongestionController
from repro.tcp.subflow import Subflow

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.base import Scheduler


@dataclass
class ConnectionConfig:
    """Tunables of an MPTCP connection.

    Attributes
    ----------
    mss: maximum segment payload in bytes.
    send_window_bytes: connection-level send window (wmem analogue).
    recv_buffer_bytes: client receive buffer (rmem analogue).
    congestion_control: "coupled" (default, as in MPTCP 0.89), "olia",
        or "reno".
    idle_reset_enabled: RFC 5681 idle restart on each subflow (Fig 6
        disables it).
    penalization_enabled: opportunistic retransmission + penalization
        (enabled throughout the paper's experiments).
    handshake_delays: model connection/subflow establishment latency.
    record_delays: keep per-packet out-of-order delay samples.
    max_cwnd: per-subflow cwnd cap, segments.
    """

    mss: int = MSS
    send_window_bytes: int = 4_000_000
    recv_buffer_bytes: int = 4_000_000
    congestion_control: str = "coupled"
    idle_reset_enabled: bool = True
    penalization_enabled: bool = True
    handshake_delays: bool = True
    record_delays: bool = True
    max_cwnd: float = 10_000.0


class MptcpConnection:
    """One MPTCP connection between a server (sender) and client (receiver).

    Parameters
    ----------
    sim: the simulator.
    paths: one :class:`~repro.net.path.Path` per subflow; the first is the
        primary interface.
    scheduler: a :class:`~repro.core.base.Scheduler` instance (each
        connection needs its own, as schedulers keep per-connection state).
    config: see :class:`ConnectionConfig`.
    on_deliver: ``on_deliver(nbytes)`` invoked at the client for every
        in-order byte run (applications consume the stream through this).
    name: label for traces and debugging.
    """

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = (
        "sim",
        "_rank",
        "config",
        "scheduler",
        "name",
        "cc",
        "receiver",
        "subflows",
        "next_dsn",
        "conn_una",
        "unassigned_bytes",
        "total_written",
        "peer_recv_window",
        "reinjections",
        "_outstanding_dsn",
        "_dsn_order",
        "_reinjected",
        "_last_penalized",
        "_rto_reinject_queue",
        "_rto_reinject_pending",
        "_sending",
    )

    def __init__(
        self,
        sim: Simulator,
        paths: Sequence[Path],
        scheduler: "Scheduler",
        config: Optional[ConnectionConfig] = None,
        on_deliver: Optional[Callable[[int], None]] = None,
        name: str = "conn",
    ) -> None:
        if not paths:
            raise ValueError("an MPTCP connection needs at least one path")
        self.sim = sim
        self._rank = sim.next_rank()
        self.config = config or ConnectionConfig()
        self.scheduler = scheduler
        self.name = name

        from repro.core.spec import CcSpec, build

        self.cc: CongestionController = build(
            CcSpec.of(self.config.congestion_control)
        )
        self.receiver = MptcpReceiver(
            sim,
            recv_buffer_bytes=self.config.recv_buffer_bytes,
            on_deliver=on_deliver,
            record_delays=self.config.record_delays,
        )

        self.subflows: List[Subflow] = []
        primary_rtt = paths[0].base_rtt
        for index, path in enumerate(paths):
            if not self.config.handshake_delays:
                established_at = sim.now
            elif index == 0:
                established_at = sim.now + primary_rtt
            else:
                established_at = sim.now + primary_rtt + path.base_rtt
            subflow = Subflow(
                sim,
                path,
                self.cc,
                sf_id=index,
                mss=self.config.mss,
                idle_reset_enabled=self.config.idle_reset_enabled,
                established_at=established_at,
                max_cwnd=self.config.max_cwnd,
            )
            subflow.receiver_callback = self._client_on_data
            subflow.on_ack_processed = self._on_subflow_ack
            subflow.on_rto = self._on_subflow_rto
            self.subflows.append(subflow)

        # Connection-level sequence space (bytes).
        self.next_dsn = 0
        self.conn_una = 0
        self.unassigned_bytes = 0
        self.total_written = 0
        self.peer_recv_window = self.config.recv_buffer_bytes
        #: In-order record of assigned, not-yet-data-acked segments:
        #: dsn -> (payload, subflow_id).  Drives reinjection and una.
        self._outstanding_dsn: Dict[int, tuple] = {}
        self._dsn_order: Deque[int] = deque()
        self._reinjected: Set[int] = set()
        self._last_penalized: Dict[int, float] = {}
        #: Meta-level retransmission queue: (dsn, payload) stranded on a
        #: timed-out subflow, to be reinjected on any open subflow.
        self._rto_reinject_queue: Deque[tuple] = deque()
        self._rto_reinject_pending: Set[int] = set()
        self._sending = False

        self.reinjections = 0

        scheduler.attach(self)
        # Subflows that become established later must trigger a scheduling
        # pass even if no ACK arrives (e.g. single-path stall before join).
        for subflow in self.subflows:
            if subflow.established_at > sim.now:
                sim.schedule_at(subflow.established_at, self._on_subflow_established)

    # ------------------------------------------------------------------
    # Application (server) side
    # ------------------------------------------------------------------
    def write(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application data for transmission."""
        if nbytes <= 0:
            raise ValueError(f"write size must be positive, got {nbytes!r}")
        self.unassigned_bytes += int(nbytes)
        self.total_written += int(nbytes)
        self.try_send()

    @property
    def mss(self) -> int:
        return self.config.mss

    @property
    def bytes_outstanding(self) -> int:
        """Assigned but not yet data-acked bytes (send-window usage)."""
        return self.next_dsn - self.conn_una

    @property
    def effective_send_window(self) -> int:
        """min(local send window, peer's advertised receive window)."""
        return min(self.config.send_window_bytes, self.peer_recv_window)

    @property
    def send_window_free(self) -> int:
        """Bytes of send window still available for new assignments."""
        return max(0, self.effective_send_window - self.bytes_outstanding)

    def window_limited(self) -> bool:
        """True when the send window blocks assigning one more segment."""
        return self.send_window_free < min(self.mss, max(1, self.unassigned_bytes))

    def recv_window_limited(self) -> bool:
        """True when the *peer's advertised window* is the binding limit.

        This is the condition the kernel's opportunistic retransmission
        reacts to (Raiciu et al. [22]): the receive window has filled with
        out-of-order data stuck behind a slow subflow's segment.  A full
        local send buffer alone does not trigger it.
        """
        return self.bytes_outstanding + self.mss > self.peer_recv_window

    @property
    def delivered_bytes(self) -> int:
        """Bytes handed to the client application in order."""
        return self.receiver.delivered_bytes

    # ------------------------------------------------------------------
    # Scheduling loop
    # ------------------------------------------------------------------
    def try_send(self) -> None:
        """Assign as much queued data as scheduler + windows allow.

        With :meth:`_service_rto_reinjections`, the one place a decision
        is made, counted (``decisions`` / ``waits``) and reported.
        """
        if self._sending:
            return
        self._sending = True
        probe = _probe.ACTIVE
        try:
            if self._rto_reinject_queue:
                self._service_rto_reinjections()
            config = self.config
            mss = config.mss
            scheduler = self.scheduler
            while self.unassigned_bytes > 0:
                # min(mss, unassigned) and window_limited(), compared on
                # locals: a two-number min() is a C call per segment.
                unassigned = self.unassigned_bytes
                payload = unassigned if unassigned < mss else mss
                peer_window = self.peer_recv_window
                own_window = config.send_window_bytes
                window = peer_window if peer_window < own_window else own_window
                if window - (self.next_dsn - self.conn_una) < payload:
                    if config.penalization_enabled and self.recv_window_limited():
                        self._opportunistic_retransmit()
                    break
                if probe is None:
                    subflow = scheduler.select(self)
                else:
                    subflow = probe.timed("scheduler.decision", scheduler.select, self)
                    probe.decision(scheduler, self, subflow)
                scheduler.decisions += 1
                if subflow is None:
                    scheduler.waits += 1
                    break
                dsn = self.next_dsn
                self.next_dsn = dsn + payload
                self.unassigned_bytes -= payload
                self._outstanding_dsn[dsn] = (payload, subflow.sf_id)
                self._dsn_order.append(dsn)
                subflow.send_segment(dsn, payload)  # refuses a broken scheduler's pick
        finally:
            self._sending = False
        if probe is not None:
            probe.audit_connection(self)

    def _on_subflow_established(self) -> None:
        self.try_send()

    # ------------------------------------------------------------------
    # Client side (runs at the receiver host)
    # ------------------------------------------------------------------
    def _client_on_data(self, packet: Packet) -> None:
        probe = _probe.ACTIVE
        receiver = self.receiver
        if probe is None:
            absorbed = receiver.on_data(packet)
        else:
            absorbed = probe.timed("receiver.reassembly", receiver.on_data, packet)
        if not absorbed:
            # Dropped for lack of receive-buffer space: stay silent so the
            # subflow-level RTO retransmits the segment once the window
            # reopens.  Acking it would discard the data permanently.
            return
        self.subflows[packet.subflow_id].send_ack(
            packet.seq, receiver.expected_dsn, receiver.recv_window
        )

    # ------------------------------------------------------------------
    # Server side ACK processing
    # ------------------------------------------------------------------
    def _on_subflow_ack(self, subflow: Subflow, packet: Packet, newly_acked: bool) -> None:
        if packet.recv_window is not None:
            self.peer_recv_window = packet.recv_window
        if packet.data_ack > self.conn_una:
            self._advance_conn_una(packet.data_ack)
        self.try_send()

    def _advance_conn_una(self, data_ack: int) -> None:
        probe = _probe.ACTIVE
        if probe is not None:
            probe.audit_conn_una(self, data_ack)
        self.conn_una = data_ack
        while self._dsn_order and self._dsn_order[0] < data_ack:
            del self._outstanding_dsn[self._dsn_order.popleft()]
        if self._reinjected:
            self._reinjected = {d for d in self._reinjected if d >= data_ack}

    # ------------------------------------------------------------------
    # Meta-level retransmission after a subflow RTO
    # ------------------------------------------------------------------
    def _on_subflow_rto(self, subflow: Subflow) -> None:
        """Queue a timed-out subflow's stranded data for reinjection.

        Mirrors the kernel's meta retransmission: a subflow RTO is taken
        as a sign the path may be dead, so its unacknowledged data is
        also scheduled on the surviving subflows (the receiver dedupes if
        the original copy eventually arrives).
        """
        if len(self.subflows) < 2:
            return
        for dsn, payload in subflow.outstanding_dsn_ranges():
            if dsn >= self.conn_una and dsn not in self._rto_reinject_pending:
                self._rto_reinject_pending.add(dsn)
                self._rto_reinject_queue.append((dsn, payload, subflow.sf_id))
        self.try_send()

    def _service_rto_reinjections(self) -> None:
        probe = _probe.ACTIVE
        scheduler = self.scheduler
        while self._rto_reinject_queue:
            dsn, payload, owner_id = self._rto_reinject_queue[0]
            if dsn < self.conn_una:
                self._rto_reinject_queue.popleft()
                self._rto_reinject_pending.discard(dsn)
                continue
            # The path scheduler picks the reinjection subflow too (as in
            # the kernel), so path policy is preserved -- a primary-only
            # policy never spills onto the secondary, and a waiting ECF
            # defers the reinjection like any other segment.
            if probe is None:
                target = scheduler.select(self)
            else:
                target = probe.timed("scheduler.decision", scheduler.select, self)
                probe.decision(scheduler, self, target)
            scheduler.decisions += 1
            if target is None:
                scheduler.waits += 1
                return
            if not target.can_send():  # here, or the owner test below hides it
                raise RuntimeError(
                    f"scheduler {scheduler.name!r} returned a subflow "
                    f"without window space: {target!r}"
                )
            if target.sf_id == owner_id:
                return
            self._rto_reinject_queue.popleft()
            self._rto_reinject_pending.discard(dsn)
            self.reinjections += 1
            if probe is not None:
                probe.reinjection(self, dsn, payload, owner_id, target.sf_id, "rto")
            target.send_segment(dsn, payload)

    # ------------------------------------------------------------------
    # Opportunistic retransmission + penalization (Raiciu et al.)
    # ------------------------------------------------------------------
    def _opportunistic_retransmit(self) -> None:
        """Reinject the window-blocking segment on a faster subflow.

        Mirrors the kernel mechanism: when the connection-level window is
        full, the segment at ``conn_una`` (stuck on a slow subflow) is sent
        again on a subflow with free CWND, and the slow subflow is
        penalized by halving its window at most once per its RTT.
        """
        entry = self._outstanding_dsn.get(self.conn_una)
        if entry is None:
            return
        payload, owner_id = entry
        if self.conn_una in self._reinjected:
            return
        owner = self.subflows[owner_id]
        candidates = [
            sf
            for sf in self.subflows
            if sf.sf_id != owner_id and sf.can_send()
        ]
        if not candidates:
            return
        target = min(candidates, key=lambda sf: sf.srtt_or_default())
        if target.srtt_or_default() >= owner.srtt_or_default():
            return
        self._reinjected.add(self.conn_una)
        self.reinjections += 1
        probe = _probe.ACTIVE
        if probe is not None:
            probe.reinjection(self, self.conn_una, payload, owner_id, target.sf_id, "opportunistic")
        target.send_segment(self.conn_una, payload)
        last = self._last_penalized.get(owner_id, -float("inf"))
        if self.sim.now - last >= owner.srtt_or_default():
            owner.penalize()
            self._last_penalized[owner_id] = self.sim.now

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------
    def set_deliver_callback(self, on_deliver: Callable[[int], None]) -> None:
        """(Re)wire the client-side delivery callback after construction."""
        self.receiver.on_deliver = on_deliver

    def payload_sent_by_subflow(self) -> Dict[int, int]:
        """Original payload bytes transmitted per subflow id."""
        return {sf.sf_id: sf.stats.payload_bytes_sent for sf in self.subflows}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MptcpConnection({self.name!r}, scheduler={self.scheduler.name!r}, "
            f"unassigned={self.unassigned_bytes}B, outstanding={self.bytes_outstanding}B)"
        )
