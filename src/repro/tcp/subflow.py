"""Sender-side TCP subflow.

One :class:`Subflow` models everything a Linux MPTCP subflow does on the
send side, at segment granularity:

* congestion window / slow-start threshold, moved by a pluggable
  congestion controller (Reno, coupled/LIA, OLIA);
* per-segment selective acknowledgement with FACK-style dupack loss
  detection (a segment is considered lost once three later segments have
  been acked) and fast retransmit with NewReno-style recovery episodes;
* retransmission timeout with exponential backoff (RFC 6298);
* **idle restart** (RFC 5681 / RFC 2861): if the subflow has been idle for
  longer than its RTO, the next transmission restarts from the initial
  window.  Section 3.2 of the paper identifies this reset -- triggered by
  the fast subflow sitting idle while the slow one finishes -- as the root
  cause of MPTCP's degradation on heterogeneous paths, so the reset is
  individually countable (Table 3) and can be disabled (Fig 6).

The subflow does not know about data sequence numbers beyond carrying
them: reliability is subflow-level, ordering is the MPTCP receiver's job.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional

from repro.net.packet import ACK_SIZE, HEADER_SIZE, MSS, Packet
from repro.net.path import Path
from repro.sim import probe as _probe
from repro.sim.engine import Simulator, Timer
from repro.tcp.rtt import RttEstimator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tcp.cc.base import CongestionController

#: RFC 6928 initial congestion window, segments.
INITIAL_WINDOW = 10

#: FACK reordering threshold: segments acked beyond one before it is lost.
DUP_THRESHOLD = 3

#: Maximum RTO backoff multiplier.
MAX_BACKOFF = 64.0

_EPS = 1e-9


class Segment:
    """One transmitted segment awaiting acknowledgement."""

    __slots__ = ("seq", "dsn", "payload", "sent_time", "retransmitted", "acked", "lost", "in_flight")

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = ("seq", "dsn", "payload", "sent_time", "retransmitted", "acked", "lost", "in_flight")

    def __init__(self, seq: int, dsn: int, payload: int, sent_time: float) -> None:
        self.seq = seq
        self.dsn = dsn
        self.payload = payload
        self.sent_time = sent_time
        self.retransmitted = False
        self.acked = False
        self.lost = False
        self.in_flight = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            f for f, on in (("A", self.acked), ("L", self.lost), ("R", self.retransmitted)) if on
        )
        return f"Segment(seq={self.seq}, dsn={self.dsn}, {flags or '-'})"


class SubflowStats:
    """Lifetime counters for one subflow."""

    __slots__ = (
        "segments_sent",
        "segments_retransmitted",
        "bytes_sent",
        "bytes_acked",
        "payload_bytes_sent",
        "idle_resets",
        "rto_events",
        "fast_retransmits",
        "bytes_since_loss",
        "penalizations",
        "last_data_sent_at",
        "last_data_acked_at",
    )

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = (
        "segments_sent",
        "segments_retransmitted",
        "bytes_sent",
        "bytes_acked",
        "payload_bytes_sent",
        "idle_resets",
        "rto_events",
        "fast_retransmits",
        "bytes_since_loss",
        "penalizations",
        "last_data_sent_at",
        "last_data_acked_at",
    )

    def __init__(self) -> None:
        self.segments_sent = 0
        self.segments_retransmitted = 0
        self.bytes_sent = 0
        self.bytes_acked = 0
        self.payload_bytes_sent = 0
        self.idle_resets = 0
        self.rto_events = 0
        self.fast_retransmits = 0
        self.bytes_since_loss = 0
        self.penalizations = 0
        self.last_data_sent_at: Optional[float] = None
        self.last_data_acked_at: Optional[float] = None

    @property
    def iw_resets(self) -> int:
        """Slow-start re-entries counted as Table 3 counts them: idle
        restarts plus loss timeouts."""
        return self.idle_resets + self.rto_events


class Subflow:
    """Sender-side state machine for one MPTCP subflow.

    Parameters
    ----------
    sim: the simulator.
    path: the bidirectional path this subflow runs over.
    cc: connection-level congestion controller (registers this subflow).
    sf_id: index within the owning connection.
    mss: maximum segment payload, bytes.
    initial_window: IW in segments (RFC 6928 default 10, as the paper notes).
    idle_reset_enabled: apply the RFC 5681 idle restart (Fig 6 toggles it).
    established_at: simulated time at which the subflow may carry data
        (secondary subflows join one handshake later than the primary).
    max_cwnd: cap on cwnd growth, segments.
    """

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = (
        "sim",
        "_rank",
        "path",
        "cc",
        "sf_id",
        "uid",
        "mss",
        "initial_window",
        "idle_reset_enabled",
        "established_at",
        "max_cwnd",
        "cwnd",
        "ssthresh",
        "rtt",
        "stats",
        "next_seq",
        "una",
        "highest_acked",
        "receiver_callback",
        "on_ack_processed",
        "on_rto",
        "_outstanding",
        "_in_flight",
        "_retx_queue",
        "_in_recovery",
        "_recovery_point",
        "_rto_timer",
        "_rto_deadline",
        "_rto_backoff",
        "_last_send_time",
        "_loss_scanned_to",
        "_default_rtt",
    )

    def __init__(
        self,
        sim: Simulator,
        path: Path,
        cc: "CongestionController",
        sf_id: int = 0,
        mss: int = MSS,
        initial_window: int = INITIAL_WINDOW,
        idle_reset_enabled: bool = True,
        established_at: float = 0.0,
        max_cwnd: float = 10_000.0,
    ) -> None:
        self.sim = sim
        self._rank = sim.next_rank()
        self.path = path
        self.cc = cc
        self.sf_id = sf_id
        self.uid = _probe.next_uid()
        self.mss = int(mss)
        self.initial_window = float(initial_window)
        self.idle_reset_enabled = idle_reset_enabled
        self.established_at = float(established_at)
        self.max_cwnd = float(max_cwnd)

        self.cwnd: float = float(initial_window)
        self.ssthresh: float = float("inf")
        self.rtt = RttEstimator()
        self.stats = SubflowStats()

        self.next_seq = 0
        self.una = 0
        self.highest_acked = -1
        self._outstanding: Dict[int, Segment] = {}
        self._in_flight = 0
        self._retx_queue: Deque[Segment] = deque()
        self._in_recovery = False
        self._recovery_point = -1
        self._rto_timer: Optional[Timer] = None
        self._rto_deadline = 0.0
        self._rto_backoff = 1.0
        self._last_send_time: Optional[float] = None
        self._loss_scanned_to = 0
        # Pre-handshake RTT guess: base propagation + one MSS serialization.
        self._default_rtt = path.base_rtt + self.mss * 8.0 / path.rate_bps

        # Wired by the owning connection:
        #   receiver_callback(packet) runs at the client when data arrives.
        #   on_ack_processed(subflow, packet, newly_acked) runs at the
        #   server after subflow-level ack processing.
        #   on_rto(subflow) runs after a retransmission timeout (the meta
        #   layer uses it to reinject stranded data on other subflows).
        self.receiver_callback: Optional[Callable[[Packet], None]] = None
        self.on_ack_processed: Optional[Callable[["Subflow", Packet, bool], None]] = None
        self.on_rto: Optional[Callable[["Subflow"], None]] = None

        cc.register(self)

    # ------------------------------------------------------------------
    # Capacity queries (what schedulers look at)
    # ------------------------------------------------------------------
    @property
    def established(self) -> bool:
        return self.sim.now >= self.established_at

    @property
    def flight(self) -> int:
        """Segments currently in the network."""
        return self._in_flight

    @property
    def outstanding_segments(self) -> int:
        """Unacked segments, whether in flight or awaiting retransmit."""
        return len(self._outstanding)

    @property
    def outstanding_bytes(self) -> int:
        """Unacked payload bytes -- the subflow-level send buffer (Fig 3)."""
        return sum(seg.payload for seg in self._outstanding.values())

    def has_window_space(self) -> bool:
        """True if the congestion window admits one more segment."""
        return self._in_flight + 1 <= self.cwnd + _EPS

    def can_send(self) -> bool:
        """True if the scheduler may assign *new* data to this subflow."""
        return (
            not self._retx_queue
            and self._in_flight + 1 <= self.cwnd + _EPS
            and self.sim.now >= self.established_at
        )

    @property
    def srtt(self) -> Optional[float]:
        return self.rtt.srtt

    def srtt_or_default(self) -> float:
        """SRTT, or the path's base RTT before the first measurement."""
        srtt = self.rtt.srtt
        return srtt if srtt is not None else self._default_rtt

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_segment(self, dsn: int, payload: int) -> Segment:
        """Transmit one new segment carrying ``payload`` bytes at ``dsn``.

        The one place a send asks :meth:`can_send`: a subflow that cannot
        send is refused with ``RuntimeError``, so callers do not ask first.
        """
        if not self.can_send():
            raise RuntimeError(f"send_segment() on subflow without window space: {self!r}")
        if payload <= 0 or payload > self.mss:
            raise ValueError(f"payload must be in (0, mss], got {payload!r}")
        if not self._in_flight and self.idle_reset_enabled and self._last_send_time is not None:
            self._maybe_idle_restart()
        segment = Segment(self.next_seq, dsn, payload, self.sim.now)
        self.next_seq += 1
        self._outstanding[segment.seq] = segment
        self._transmit(segment, retransmission=False)
        return segment

    def _maybe_idle_restart(self) -> None:
        """RFC 5681: collapse cwnd to IW after an idle period > RTO (idle subflows only)."""
        idle = self.sim.now - self._last_send_time
        if idle > self.rtt.rto and self.cwnd > self.initial_window:
            # Linux tcp_cwnd_restart(): ssthresh = tcp_current_ssthresh()
            # = max(ssthresh, 3/4 * cwnd), then cwnd collapses to IW.  The
            # subflow therefore slow-starts back toward 3/4 of its decayed
            # window -- still costing several RTTs per object, which is the
            # recurring tax Section 3.2 identifies.
            old_cwnd = self.cwnd
            if self.ssthresh == float("inf"):
                self.ssthresh = 0.75 * self.cwnd
            else:
                self.ssthresh = max(self.ssthresh, 0.75 * self.cwnd)
            self.cwnd = self.initial_window
            self.stats.idle_resets += 1
            probe = _probe.ACTIVE
            if probe is not None:
                probe.idle_reset(self, idle, old_cwnd)

    def _transmit(self, segment: Segment, retransmission: bool) -> None:
        now = self.sim.now
        stats = self.stats
        if retransmission:
            segment.retransmitted = True
            segment.lost = False
            stats.segments_retransmitted += 1
        else:
            stats.payload_bytes_sent += segment.payload
        segment.sent_time = now
        segment.in_flight = True
        self._in_flight += 1
        self._last_send_time = now
        stats.segments_sent += 1
        stats.bytes_sent += segment.payload + HEADER_SIZE
        stats.last_data_sent_at = now
        packet = Packet.data_segment(
            segment.payload + HEADER_SIZE,
            segment.payload,
            self.sf_id,
            segment.seq,
            segment.dsn,
            now,
            segment.retransmitted,
        )
        if self.receiver_callback is None:
            raise RuntimeError("subflow.receiver_callback not wired")
        probe = _probe.ACTIVE
        if probe is not None:
            probe.segment_sent(self, segment)
        self.path.forward.send(packet, self.receiver_callback)
        self._arm_rto()

    def send_ack(self, ack_seq: int, data_ack: int, recv_window: int) -> None:
        """Receiver-side helper: emit a pure ACK back to the sender."""
        ack = Packet.pure_ack(self.sf_id, ack_seq, data_ack, 0.0, recv_window)
        self.path.reverse.send(ack, self.handle_ack)

    # ------------------------------------------------------------------
    # Acknowledgement processing
    # ------------------------------------------------------------------
    def handle_ack(self, packet: Packet) -> None:
        """Process one arriving ACK (selective, per-segment).

        Each helper is entered only with work.  The segment at una is never
        acked between ACKs, so only an ACK at una can advance una."""
        segment = self._outstanding.get(packet.ack_seq)
        newly_acked = segment is not None and not segment.acked
        if newly_acked:
            probe = _probe.ACTIVE
            now = self.sim.now
            segment.acked = True
            if segment.in_flight:
                segment.in_flight = False
                self._in_flight -= 1
            if segment.lost:
                # Unacked and lost means queued (the sanitizer audits it).
                self._retx_queue.remove(segment)
            if not segment.retransmitted:
                self.rtt.add_sample(now - segment.sent_time)
                self._rto_backoff = 1.0
            self.stats.bytes_acked += segment.payload
            self.stats.bytes_since_loss += segment.payload
            self.stats.last_data_acked_at = now
            if segment.seq > self.highest_acked:
                self.highest_acked = segment.seq
            if segment.seq == self.una:
                self._advance_una()
            if self._in_recovery and self.una > self._recovery_point:
                self._in_recovery = False
            if not self._in_recovery:
                if probe is None:
                    self.cc.on_ack(self, 1)
                else:
                    probe.timed("cc.update", self.cc.on_ack, self, 1)
            threshold = self.highest_acked - DUP_THRESHOLD + 1
            if threshold > self.una and threshold > self._loss_scanned_to:
                self._detect_losses(threshold)
            if self._retx_queue:
                self._service_retransmissions()
            self._arm_rto()
            if probe is not None:
                probe.audit_subflow(self)
                probe.ack_processed(self, segment)
        if self.on_ack_processed is not None:
            self.on_ack_processed(self, packet, newly_acked)

    def _advance_una(self) -> None:
        while self.una < self.next_seq:
            segment = self._outstanding.get(self.una)
            if segment is None or not segment.acked:
                break
            del self._outstanding[self.una]
            self.una += 1

    def _detect_losses(self, threshold: int) -> None:
        """FACK: mark lost the unacked segments below ``threshold``, 3 behind the ack front.

        A monotone scan pointer keeps this amortized O(1) per ACK: each
        sequence number is examined once.  A segment whose *retransmission*
        is also lost is therefore recovered by the RTO backstop rather than
        by dupacks -- the same compromise many real stacks make.
        """
        for seq in range(max(self.una, self._loss_scanned_to), threshold):
            segment = self._outstanding.get(seq)
            if segment is None or segment.acked or segment.lost:
                continue
            self._mark_lost(segment)
        self._loss_scanned_to = threshold

    def _mark_lost(self, segment: Segment) -> None:
        segment.lost = True
        if segment.in_flight:
            segment.in_flight = False
            self._in_flight -= 1
        self._retx_queue.append(segment)
        if not self._in_recovery:
            self._in_recovery = True
            self._recovery_point = self.next_seq - 1
            self.stats.fast_retransmits += 1
            self.stats.bytes_since_loss = 0
            probe = _probe.ACTIVE
            if probe is None:
                self.cc.on_loss(self)
            else:
                probe.timed("cc.update", self.cc.on_loss, self)
                probe.fast_retransmit(self, segment)

    def _service_retransmissions(self) -> None:
        """Resend queued segments while the window admits; queue non-empty."""
        while self.has_window_space():
            segment = self._retx_queue.popleft()
            if not segment.acked:
                self._transmit(segment, retransmission=True)
            if not self._retx_queue:
                return

    # ------------------------------------------------------------------
    # Retransmission timeout
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        """Move the RTO deadline; reschedule the timer lazily.

        The deadline only ever moves later on ACK progress, so instead of
        cancel+push per ACK the live timer is kept and, when it fires
        early, put back to sleep until the real deadline.
        """
        if not self._outstanding:
            return  # a pending timer fires as a no-op; keep the reference
        backoff = self._rto_backoff
        timeout = (backoff if backoff < MAX_BACKOFF else MAX_BACKOFF) * self.rtt.rto
        sim = self.sim
        self._rto_deadline = sim.now + timeout
        timer = self._rto_timer
        if timer is None or timer.cancelled:
            self._rto_timer = sim.schedule(timeout, self._on_rto)

    def _on_rto(self) -> None:
        self._rto_timer = None
        if not self._outstanding:
            return
        if self.sim.now < self._rto_deadline - 1e-12:
            self._rto_timer = self.sim.schedule_at(self._rto_deadline, self._on_rto)
            return
        self.stats.rto_events += 1
        self.stats.bytes_since_loss = 0
        backoff_before = self._rto_backoff
        self._rto_backoff = min(MAX_BACKOFF, self._rto_backoff * 2.0)
        probe = _probe.ACTIVE
        if probe is None:
            self.cc.on_rto(self)
        else:
            probe.rto_fired(self, backoff_before)
            probe.timed("cc.update", self.cc.on_rto, self)
        self._in_recovery = True
        self._recovery_point = self.next_seq - 1
        # Everything unacked goes back to the retransmission queue in
        # sequence order; the window (now 1) meters it back out.
        self._retx_queue.clear()
        for seq in sorted(self._outstanding):
            segment = self._outstanding[seq]
            if segment.acked:
                continue
            if segment.in_flight:
                segment.in_flight = False
                self._in_flight -= 1
            segment.lost = True
            self._retx_queue.append(segment)
        if self._retx_queue:
            self._service_retransmissions()
        self._arm_rto()
        if probe is not None:
            probe.audit_subflow(self)
        if self.on_rto is not None:
            self.on_rto(self)

    # ------------------------------------------------------------------
    # MPTCP hooks
    # ------------------------------------------------------------------
    def penalize(self) -> None:
        """Halve the window (opportunistic-retransmission penalization)."""
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = max(self.cwnd / 2.0, 1.0)
        self.stats.penalizations += 1

    def outstanding_dsn_ranges(self) -> list:
        """(dsn, payload) of every unacked segment, in sequence order.

        The meta layer reinjects these on other subflows when this one
        times out.
        """
        return [
            (segment.dsn, segment.payload)
            for seq, segment in sorted(self._outstanding.items())
            if not segment.acked
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Subflow(id={self.sf_id}, path={self.path.name!r}, "
            f"cwnd={self.cwnd:.1f}, flight={self._in_flight}, "
            f"una={self.una}, next={self.next_seq})"
        )
