"""Unidirectional regulated link with a finite drop-tail queue.

The link reproduces what ``tc`` rate limiting does to a real interface:

* packets are serialized one at a time at the configured rate;
* a finite FIFO queue in front of the transmitter absorbs bursts -- when a
  TCP sender fills it, queueing delay dominates the RTT.  This is the
  bufferbloat effect behind the paper's Table 2, where a 0.3 Mbps
  regulation turns a ~30 ms path into a ~1 s path;
* packets arriving to a full queue are dropped (the loss signal congestion
  control reacts to);
* an optional Bernoulli random-loss process models wireless corruption.

Rate changes (Section 5.3's variable-bandwidth scenarios) take effect on
the next packet that begins transmission, exactly like a token-bucket
regulator being reconfigured.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Callable, Deque, Optional

from repro.net.packet import Packet
from repro.sim import probe as _probe
from repro.sim.engine import Simulator, Timer


class LinkStats:
    """Counters a link maintains over its lifetime."""

    __slots__ = (
        "packets_in",
        "packets_delivered",
        "packets_dropped_queue",
        "packets_dropped_random",
        "packets_dropped_outage",
        "bytes_delivered",
        "busy_time",
    )

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = (
        "packets_in",
        "packets_delivered",
        "packets_dropped_queue",
        "packets_dropped_random",
        "packets_dropped_outage",
        "bytes_delivered",
        "busy_time",
    )

    def __init__(self) -> None:
        self.packets_in = 0
        self.packets_delivered = 0
        self.packets_dropped_queue = 0
        self.packets_dropped_random = 0
        self.packets_dropped_outage = 0
        self.bytes_delivered = 0
        self.busy_time = 0.0

    @property
    def packets_dropped(self) -> int:
        """Total packets lost for any reason."""
        return (
            self.packets_dropped_queue
            + self.packets_dropped_random
            + self.packets_dropped_outage
        )

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the transmitter spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkStats(in={self.packets_in}, out={self.packets_delivered}, "
            f"qdrop={self.packets_dropped_queue}, rdrop={self.packets_dropped_random})"
        )


class Link:
    """One direction of a network path.

    Parameters
    ----------
    sim:
        The simulator driving this link.
    rate_bps:
        Transmission rate in bits per second (the ``tc`` regulation value).
    delay:
        One-way propagation delay in seconds, applied after serialization.
    queue_bytes:
        Capacity of the drop-tail queue (bytes of queued, not-yet-serialized
        packets).  The packet currently being transmitted does not count.
    loss_rate:
        Probability an otherwise-deliverable packet is dropped at the
        transmitter (models wireless loss).  Requires ``rng`` when > 0.
    rng:
        Random stream for the loss and jitter processes.
    jitter:
        Maximum extra per-packet propagation delay, seconds, drawn
        uniformly from ``[0, jitter]`` (models wireless MAC variance).
        Jitter can reorder packets *within* the link.  Requires ``rng``
        when > 0.
    name:
        Label used in traces and error messages.
    """

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = (
        "sim",
        "rate_bps",
        "delay",
        "queue_bytes",
        "loss_rate",
        "jitter",
        "rng",
        "name",
        "stats",
        "on_drop",
        "_queue",
        "_queued_bytes",
        "_busy",
        "_down",
        "_tx_timer",
        "_in_propagation",
        "_finish_cb",
        "_deliver_cb",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        delay: float,
        queue_bytes: int = 64_000,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        name: str = "link",
        jitter: float = 0.0,
    ) -> None:
        if not math.isfinite(rate_bps) or rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive and finite, got {rate_bps!r}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        if queue_bytes <= 0:
            raise ValueError(f"queue_bytes must be positive, got {queue_bytes!r}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate!r}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter!r}")
        if (loss_rate > 0.0 or jitter > 0.0) and rng is None:
            raise ValueError("loss_rate/jitter > 0 requires an rng")
        self.sim = sim
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.queue_bytes = int(queue_bytes)
        self.loss_rate = float(loss_rate)
        self.jitter = float(jitter)
        self.rng = rng
        self.name = name
        self.stats = LinkStats()
        self.on_drop: Optional[Callable[[Packet], None]] = None
        self._queue: Deque[tuple[Packet, Callable[[Packet], None]]] = deque()
        self._queued_bytes = 0
        self._busy = False
        self._down = False
        self._tx_timer: Optional[Timer] = None
        #: Packets serialized but still in propagation (conservation audit).
        self._in_propagation = 0
        # Bound methods are allocated once here, not once per packet in the
        # serialization loop.
        self._finish_cb = self._finish_transmission
        self._deliver_cb = self._deliver
        probe = _probe.ACTIVE
        if probe is not None:
            probe.adopt(self)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, packet: Packet, on_delivery: Callable[[Packet], None]) -> bool:
        """Enqueue ``packet``; ``on_delivery(packet)`` fires at the far end.

        Returns False if the packet was dropped (full queue or random loss).
        """
        self.stats.packets_in += 1
        if self._down:
            self.stats.packets_dropped_outage += 1
            self._notify_drop(packet)
            return False
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.stats.packets_dropped_random += 1
            self._notify_drop(packet)
            return False
        if self._busy:
            if self._queued_bytes + packet.size > self.queue_bytes:
                self.stats.packets_dropped_queue += 1
                self._notify_drop(packet)
                return False
            self._queue.append((packet, on_delivery))
            self._queued_bytes += packet.size
        else:
            self._busy = True
            tx_time = packet.size * 8.0 / self.rate_bps
            self.stats.busy_time += tx_time
            self._tx_timer = self.sim.schedule(tx_time, self._finish_cb, packet, on_delivery)
        probe = _probe.ACTIVE
        if probe is not None:
            probe.audit_link(self)
        return True

    def _finish_transmission(
        self, packet: Packet, on_delivery: Callable[[Packet], None]
    ) -> None:
        self._tx_timer = None
        delay = self.delay
        if self.jitter > 0.0:
            delay += self.rng.uniform(0.0, self.jitter)
        if self._down:
            # The packet in flight when the link went down is lost.
            self.stats.packets_dropped_outage += 1
            self._notify_drop(packet)
        else:
            self._in_propagation += 1
            self.sim.schedule(delay, self._deliver_cb, packet, on_delivery)
        if self._queue:
            next_packet, next_cb = self._queue.popleft()
            self._queued_bytes -= next_packet.size
            tx_time = next_packet.size * 8.0 / self.rate_bps
            self.stats.busy_time += tx_time
            self._tx_timer = self.sim.schedule(tx_time, self._finish_cb, next_packet, next_cb)
        else:
            self._busy = False
        probe = _probe.ACTIVE
        if probe is not None:
            probe.audit_link(self)

    def _deliver(self, packet: Packet, on_delivery: Callable[[Packet], None]) -> None:
        self._in_propagation -= 1
        self.stats.packets_delivered += 1
        self.stats.bytes_delivered += packet.size
        on_delivery(packet)

    def _notify_drop(self, packet: Packet) -> None:
        if self.on_drop is not None:
            self.on_drop(packet)

    # ------------------------------------------------------------------
    # Runtime control / introspection
    # ------------------------------------------------------------------
    def set_rate(self, rate_bps: float) -> None:
        """Change the regulated rate; applies to subsequent transmissions.

        NaN slips past a plain ``<= 0`` check and silently poisons every
        subsequent serialization time, so the rate must be finite too.
        """
        if not math.isfinite(rate_bps) or rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive and finite, got {rate_bps!r}")
        self.rate_bps = float(rate_bps)

    def set_down(self, down: bool = True) -> None:
        """Take the link down (an interface outage) or bring it back up.

        While down, every arriving packet -- and whatever was mid-flight
        at the transmitter -- is dropped.  Queued packets drain into the
        void; the transport's RTO machinery is what recovers the traffic,
        exactly as with a real radio outage.
        """
        self._down = down

    @property
    def down(self) -> bool:
        """True while the link is in an outage."""
        return self._down

    @property
    def queued_bytes(self) -> int:
        """Bytes waiting behind the packet currently being serialized."""
        return self._queued_bytes

    @property
    def queue_depth(self) -> int:
        """Number of packets waiting (excluding the one in transmission)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self._busy

    def transit_estimate(self, size: int) -> float:
        """Estimated time for ``size`` bytes to cross an empty link.

        A link in an outage can deliver nothing, so the estimate is
        ``math.inf`` rather than the finite value the rate alone would
        suggest -- schedulers treat an infinite estimate as "path
        unusable" instead of planning traffic onto a dead interface.
        """
        if self._down:
            return math.inf
        return size * 8.0 / self.rate_bps + self.delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name!r}, {self.rate_bps / 1e6:.2f} Mbps, "
            f"{self.delay * 1e3:.1f} ms, q={self._queued_bytes}/{self.queue_bytes}B)"
        )
