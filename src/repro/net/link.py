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

Virtual time: a link is a FIFO server, so :meth:`Link.send` computes a
packet's whole future at admission -- start = max(now, transmitter free),
finish = start + size*8/rate, arrival = finish + delay -- and appends it
to one FIFO.  The link keeps one timer, for the FIFO head, and each
delivery re-arms it for the next: one event per packet per link, and no
timer allocated per packet.  What a serialisation-end event would
decide is read off the FIFO instead:

* a packet has started at ``now`` once the packet ahead of it has
  finished (start <= now), so a departure at t precedes an arrival at t;
* :meth:`Link.set_rate` re-times the packets that have not started, and
  the one that starts exactly at the rate change;
* an outage is recorded as an interval, and a packet whose finish falls
  inside one is dropped -- and reported to ``on_drop`` -- when its turn
  comes, at finish + delay (at its finish on a jittered link);
* a jittered link's head event fires at the packet's finish instead, where
  its jitter is drawn (so draws interleave with loss draws as they always
  have) before one more link-owned event delivers it.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.net.packet import Packet
from repro.sim import probe as _probe
from repro.sim.engine import Simulator


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
        #: Serialisation time of every admitted packet (booked at
        #: admission, re-booked by a rate change before it starts).
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
        "_rank",
        "rate_bps",
        "delay",
        "queue_bytes",
        "loss_rate",
        "jitter",
        "rng",
        "name",
        "stats",
        "on_drop",
        "_fifo",
        "_waiting",
        "_queued_bytes",
        "_free_at",
        "_down",
        "_outages",
        "_jittering",
        "_timer",
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
        self._rank = sim.next_rank()
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.queue_bytes = int(queue_bytes)
        self.loss_rate = float(loss_rate)
        self.jitter = float(jitter)
        self.rng = rng
        self.name = name
        self.stats = LinkStats()
        self.on_drop: Optional[Callable[[Packet], None]] = None
        #: Admitted packets not yet handed on, in admission order:
        #: (finish, packet, on_delivery).  The head's turn -- its arrival,
        #: finish + delay, or its finish on a jittered link -- is the one
        #: pending event of the link.
        self._fifo: Deque[Tuple[float, Packet, Callable[[Packet], None]]] = deque()
        #: How many FIFO tail entries were still waiting to start, and
        #: their bytes, as of the last send or rate change.
        self._waiting = 0
        self._queued_bytes = 0
        #: When the transmitter finishes the last admitted packet.
        self._free_at = 0.0
        self._down = False
        #: (down_at, up_at) outages some FIFO entry may still finish in;
        #: the current outage's ``up_at`` is infinite.
        self._outages: List[Tuple[float, float]] = []
        #: Packets handed to their jitter delivery event (jittered links).
        self._jittering = 0
        #: The one timer of the link: the FIFO head's turn, re-armed for
        #: each new head.
        self._timer = sim.timer(self._turn)
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
        stats = self.stats
        stats.packets_in += 1
        if self._down:
            stats.packets_dropped_outage += 1
            self._notify_drop(packet)
            return False
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            stats.packets_dropped_random += 1
            self._notify_drop(packet)
            return False
        now = self.sim.now
        if self._waiting:
            # The waiting packets that have started leave the queue first.
            count, started = self._departures(now)
            self._waiting -= count
            self._queued_bytes -= started
        start = self._free_at
        size = packet.size
        if start > now:
            # The transmitter is busy: the packet waits in the queue.
            if self._queued_bytes + size > self.queue_bytes:
                stats.packets_dropped_queue += 1
                self._notify_drop(packet)
                return False
            self._waiting += 1
            self._queued_bytes += size
        else:
            start = now
        tx_time = size * 8.0 / self.rate_bps
        stats.busy_time += tx_time
        finish = start + tx_time
        self._free_at = finish
        fifo = self._fifo
        fifo.append((finish, packet, on_delivery))
        if len(fifo) == 1:
            self.sim.arm(self._timer, finish if self.jitter > 0.0 else finish + self.delay)
        probe = _probe.ACTIVE
        if probe is not None:
            probe.audit_link(self)
        return True

    def _departures(self, now: float) -> Tuple[int, int]:
        """(packets, bytes) of the waiting packets that have started by
        ``now``.  A waiting packet starts when the one ahead of it
        finishes; one whose predecessor was already handed on has started
        too."""
        fifo = self._fifo
        index = len(fifo) - self._waiting
        count = size = 0
        while index < len(fifo) and (index == 0 or fifo[index - 1][0] <= now):
            size += fifo[index][1].size
            count += 1
            index += 1
        return count, size

    def _turn(self) -> None:
        """The FIFO head's turn: its arrival at the far end, or on a
        jittered link the end of its serialisation.  There the jitter is
        drawn -- even for a packet an outage takes, so draws interleave
        with loss draws on a shared stream as they always have -- and one
        more link-owned event delivers the packet."""
        fifo = self._fifo
        if self._waiting == len(fifo):
            # The head has long started; no send since has noticed.
            self._waiting -= 1
            self._queued_bytes -= fifo[0][1].size
        finish, packet, on_delivery = fifo.popleft()
        jittered = self.jitter > 0.0
        if fifo:
            self.sim.arm(self._timer, fifo[0][0] if jittered else fifo[0][0] + self.delay)
        if jittered:
            delay = self.delay + self.rng.uniform(0.0, self.jitter)
        stats = self.stats
        lost = self._outages and self._in_outage(finish)
        if lost:
            stats.packets_dropped_outage += 1
            self._notify_drop(packet)
        elif jittered:
            self._jittering += 1
            self.sim.schedule(delay, self._deliver_jittered, packet, on_delivery)
        else:
            stats.packets_delivered += 1
            stats.bytes_delivered += packet.size
        probe = _probe.ACTIVE
        if probe is not None:
            probe.audit_link(self)
        if not (lost or jittered):
            on_delivery(packet)

    def _in_outage(self, finish: float) -> bool:
        """Whether ``finish`` falls in a recorded outage (down_at < finish
        <= up_at).  Heads come in finish order, so outages that ended
        before ``finish`` are forgotten."""
        outages = self._outages
        while outages and outages[0][1] < finish:
            del outages[0]
        return bool(outages) and outages[0][0] < finish

    def _deliver_jittered(self, packet: Packet, on_delivery: Callable[[Packet], None]) -> None:
        self._jittering -= 1
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

        Packets already queued but not yet started are re-timed at the
        new rate; the one in transmission finishes at the old one.  A
        packet that starts exactly now takes the new rate: a rate change
        applies before the transmissions its instant begins.  NaN slips
        past a plain ``<= 0`` check and silently poisons every subsequent
        serialization time, so the rate must be finite too.
        """
        if not math.isfinite(rate_bps) or rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive and finite, got {rate_bps!r}")
        # Started before now: finish <= the float just below now.
        count, started = self._departures(math.nextafter(self.sim.now, -math.inf))
        self._waiting -= count
        self._queued_bytes -= started
        old_rate, self.rate_bps = self.rate_bps, float(rate_bps)
        fifo = self._fifo
        first = len(fifo) - self._waiting
        if first == len(fifo):
            return
        # The packet ahead of the first waiting one is in transmission.
        finish = fifo[first - 1][0]
        stats = self.stats
        for index in range(first, len(fifo)):
            _, packet, on_delivery = fifo[index]
            tx_time = packet.size * 8.0 / self.rate_bps
            stats.busy_time += tx_time - packet.size * 8.0 / old_rate
            finish += tx_time
            fifo[index] = (finish, packet, on_delivery)
        self._free_at = finish

    def set_down(self, down: bool = True) -> None:
        """Take the link down (an interface outage) or bring it back up.

        While down, every arriving packet -- and whatever was mid-flight
        at the transmitter -- is dropped.  Queued packets drain into the
        void; the transport's RTO machinery is what recovers the traffic,
        exactly as with a real radio outage.
        """
        if down == self._down:
            return
        self._down = down
        now = self.sim.now
        if down:
            self._outages.append((now, math.inf))
        else:
            self._outages[-1] = (self._outages[-1][0], now)

    @property
    def down(self) -> bool:
        """True while the link is in an outage."""
        return self._down

    @property
    def queued_bytes(self) -> int:
        """Bytes waiting behind the packet currently being serialized."""
        return self._queued_bytes - self._departures(self.sim.now)[1]

    @property
    def queue_depth(self) -> int:
        """Number of packets waiting (excluding the one in transmission)."""
        return self._waiting - self._departures(self.sim.now)[0]

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self._free_at > self.sim.now

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
            f"{self.delay * 1e3:.1f} ms, q={self.queued_bytes}/{self.queue_bytes}B)"
        )
