"""The MPTCP meta-socket.

:class:`MptcpConnection` owns one subflow per path and moves application
bytes through them:

* the server application calls :meth:`write`; bytes join the
  **connection-level send buffer** (ECF's ``k`` is exactly the part of this
  buffer not yet assigned to any subflow);
* whenever window space exists, the configured **path scheduler** picks
  the subflow (``select``; ``None`` is the ECF/BLEST "wait") and the DSN
  range it carries (``next_segment``), inside the connection-level send
  window and the receiver's advertised window;
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
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence

from repro.mptcp.receiver import MptcpReceiver
from repro.net.packet import MSS, Packet
from repro.net.path import Path
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

    __slots__ = (
        "sim",
        "_rank",
        "config",
        "scheduler",
        "name",
        "cc",
        "receiver",
        "subflows",
        "conn_una",
        "unassigned_bytes",
        "total_written",
        "peer_recv_window",
        "reinjections",
        "unassigned_runs",
        "assigned",
        "reinject_queue",
        "reinjecting",
        "_reinjected_una",
        "_last_penalized",
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

        # The DSN ledger: each byte of [conn_una, total_written) is either
        # unassigned (in a ``[start, end]`` run of ``unassigned_runs``, in DSN
        # order; ``unassigned_bytes`` is their total) or in a range of
        # ``assigned``: dsn -> (payload, the subflow id it was assigned to,
        # None or the id of the subflow whose timeout queued it for
        # reinjection).  ``reinject_queue`` holds the queued dsns, oldest
        # first; ``reinjecting`` is true while a send pass offers them.
        self.conn_una = 0
        self.unassigned_bytes = 0
        self.total_written = 0
        self.peer_recv_window = self.config.recv_buffer_bytes
        self.unassigned_runs: List[list] = []
        self.assigned: Dict[int, tuple] = {}
        self.reinject_queue: Deque[int] = deque()
        self.reinjecting = False
        #: conn_una when its segment was last opportunistically reinjected.
        self._reinjected_una = -1
        self._last_penalized: Dict[int, float] = {}
        self._sending = False
        self.reinjections = 0

        scheduler.attach(self)
        # Subflows that become established later must trigger a scheduling
        # pass even if no ACK arrives (e.g. single-path stall before join).
        for subflow in self.subflows:
            if subflow.established_at > sim.now:
                sim.schedule_at(subflow.established_at, self.try_send)

    # ------------------------------------------------------------------
    # Server side: application writes and the send loop
    # ------------------------------------------------------------------
    def write(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application data for transmission."""
        if nbytes <= 0:
            raise ValueError(f"write size must be positive, got {nbytes!r}")
        start = self.total_written
        end = self.total_written = start + int(nbytes)
        runs = self.unassigned_runs
        if runs and runs[-1][1] == start:
            runs[-1][1] = end
        else:
            runs.append([start, end])
        self.unassigned_bytes += end - start
        self.try_send()

    @property
    def mss(self) -> int:
        return self.config.mss

    @property
    def bytes_outstanding(self) -> int:
        """Bytes from ``conn_una`` to the lowest unassigned DSN (window usage)."""
        runs = self.unassigned_runs
        return (runs[0][0] if runs else self.total_written) - self.conn_una

    @property
    def effective_send_window(self) -> int:
        """min(local send window, peer's advertised receive window)."""
        return min(self.config.send_window_bytes, self.peer_recv_window)

    def recv_window_limited(self) -> bool:
        """True when the *peer's advertised window* binds: the kernel's
        opportunistic retransmission (Raiciu et al. [22]) reacts to a receive
        window filled behind a slow subflow's segment, not to a full buffer."""
        return self.bytes_outstanding + self.mss > self.peer_recv_window

    @property
    def delivered_bytes(self) -> int:
        """Bytes handed to the client application in order."""
        return self.receiver.delivered_bytes

    def try_send(self) -> None:
        """The one send loop, where every decision is made, counted and reported:
        ``select`` picks the subflow, ``next_segment`` its DSN range.  A pass
        offers queued reinjections until they run out, ``select`` waits or
        ``next_segment`` declines; then new data, while the window allows."""
        if self._sending:
            return
        self._sending = True
        probe = _probe.ACTIVE
        config = self.config
        mss = config.mss
        scheduler = self.scheduler
        runs = self.unassigned_runs
        reinjecting = False
        if self.reinject_queue:
            reinjecting = self.reinjecting = True
        try:
            while True:
                if reinjecting:
                    start = -1  # no new-data range passed the window test
                    queue = self.reinject_queue
                    while queue and queue[0] < self.conn_una:
                        queue.popleft()  # acked while it waited
                    if not queue:
                        reinjecting = self.reinjecting = False
                        continue
                elif runs:
                    # min(mss, run) and the window test, compared on
                    # locals: a two-number min() is a C call per segment.
                    start, end = runs[0]
                    size = end - start
                    if size > mss:
                        size = mss
                    peer_window = self.peer_recv_window
                    own_window = config.send_window_bytes
                    window = peer_window if peer_window < own_window else own_window
                    if window - (start - self.conn_una) < size:
                        if config.penalization_enabled and self.recv_window_limited():
                            self._opportunistic_retransmit()
                        break
                else:
                    break
                if probe is None:
                    subflow = scheduler.select(self)
                else:
                    subflow = probe.timed("scheduler.decision", scheduler.select, self)
                    probe.decision(scheduler, self, subflow)
                scheduler.decisions += 1
                if subflow is None:
                    scheduler.waits += 1
                    if not reinjecting:
                        break
                    reinjecting = self.reinjecting = False
                    continue
                segment = scheduler.next_segment(self, subflow)
                if segment is None:
                    if not subflow.can_send():
                        raise RuntimeError(f"{subflow!r} picked without window space")
                    if not reinjecting:
                        break
                    reinjecting = self.reinjecting = False
                    continue
                dsn, payload = segment
                if dsn == start and payload == size:  # the range tested above
                    if start + size == end:
                        del runs[0]
                    else:
                        runs[0][0] = start + size
                    self.assigned[dsn] = (payload, subflow.sf_id, None)
                    self.unassigned_bytes -= payload
                else:
                    self._take(dsn, payload, subflow)
                subflow.send_segment(dsn, payload)  # refuses a broken scheduler's pick
        finally:
            self._sending = self.reinjecting = False
        if probe is not None:
            probe.audit_connection(self)

    def _take(self, dsn: int, payload: int, subflow: Subflow) -> None:
        """Book a range the window test above did not pass: a queued
        reinjection, or unassigned bytes inside the send window."""
        assigned = self.assigned
        if dsn in assigned:
            size, owner_id, queued_by = assigned[dsn]
            if queued_by is None or size != payload:
                raise ValueError(f"({dsn}, {payload}) is not a queued reinjection")
            assigned[dsn] = (payload, owner_id, None)
            self.reinject_queue.remove(dsn)
            self.reinjections += 1
            probe = _probe.ACTIVE
            if probe is not None:
                probe.reinjection(self, dsn, payload, queued_by, subflow.sf_id, "rto")
            return
        end = dsn + payload
        runs = self.unassigned_runs
        index = next((i for i, (low, high) in enumerate(runs) if low <= dsn < end <= high), -1)
        if index < 0 or end - self.conn_una > self.effective_send_window:
            raise ValueError(f"({dsn}, {payload}) is no unassigned range inside the window")
        low, high = runs[index]
        runs[index:index + 1] = [run for run in ([low, dsn], [end, high]) if run[0] < run[1]]
        assigned[dsn] = (payload, subflow.sf_id, None)
        self.unassigned_bytes -= payload

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
    # Server side: DATA_ACKs and subflow timeouts
    # ------------------------------------------------------------------
    def _on_subflow_ack(self, subflow: Subflow, packet: Packet, newly_acked: bool) -> None:
        if packet.recv_window is not None:
            self.peer_recv_window = packet.recv_window
        data_ack = packet.data_ack
        una = self.conn_una
        if data_ack > una:
            # Prune the ledger: a DATA_ACK ends an assigned range, and the
            # ranges from conn_una on tile the acked bytes (a KeyError here,
            # or the sanitizer's partition audit after the pass, if not).
            assigned = self.assigned
            while una < data_ack:
                payload = assigned[una][0]
                del assigned[una]
                una += payload
            self.conn_una = data_ack
        self.try_send()

    def _on_subflow_rto(self, subflow: Subflow) -> None:
        """Queue a timed-out subflow's stranded data for reinjection: the
        kernel's meta retransmission.  An RTO hints the path may be dead, so
        its unacked data goes out on the others too (the receiver dedupes).
        The scheduler picks the subflow, so path policy holds: a waiting ECF
        defers a reinjection like any other segment."""
        if len(self.subflows) < 2:
            return
        assigned = self.assigned
        for dsn, _ in subflow.outstanding_dsn_ranges():
            if dsn >= self.conn_una:
                payload, owner_id, queued_by = assigned[dsn]
                if queued_by is None:
                    assigned[dsn] = (payload, owner_id, subflow.sf_id)
                    self.reinject_queue.append(dsn)
        self.try_send()

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
        una = self.conn_una
        entry = self.assigned.get(una)
        if entry is None or self._reinjected_una == una:
            return
        payload, owner_id, _ = entry
        owner = self.subflows[owner_id]
        candidates = [sf for sf in self.subflows if sf.sf_id != owner_id and sf.can_send()]
        target = min(candidates, key=lambda sf: sf.srtt_or_default(), default=None)
        if target is None or target.srtt_or_default() >= owner.srtt_or_default():
            return
        self._reinjected_una = una
        self.reinjections += 1
        probe = _probe.ACTIVE
        if probe is not None:
            probe.reinjection(self, una, payload, owner_id, target.sf_id, "opportunistic")
        target.send_segment(una, payload)
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
