"""Interface profiles: the paper's testbed WiFi/LTE and wild paths.

Calibration targets Table 2 of the paper, which reports the average RTT
observed per ``tc`` bandwidth regulation::

    Bandwidth (Mbps)  0.3  0.7  1.1  1.7  4.2  8.6
    WiFi RTT (ms)     969  413  273  196   87   40
    LTE  RTT (ms)     858  416  268  210  131  105

Those RTTs are dominated by queueing: the regulator's buffer holds a
roughly constant number of bytes, so halving the rate doubles the drain
time.  We reproduce that with a fixed-size drop-tail queue in front of the
regulated transmitter:

* WiFi: ~15 ms propagation each way, 34 kB queue
  (34 kB at 0.3 Mbps is ~0.91 s of queueing -> ~0.94 s RTT when full).
* LTE: ~48 ms propagation each way, 28 kB queue.

The "wild" profiles (Section 6) instead draw a per-run RTT for WiFi from a
wide range (the paper observed 70 ms to ~1 s across its nine runs) while
LTE stays near 70 ms, both with plentiful but jittery bandwidth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.net.link import Link
from repro.net.path import Path
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class PathConfig:
    """Everything needed to instantiate one bidirectional path.

    Attributes
    ----------
    name: interface label ("wifi", "lte", ...).
    rate_mbps: forward (data) regulated rate.
    one_way_delay: propagation delay per direction, seconds.
    queue_bytes: drop-tail queue capacity of the forward link.
    loss_rate: random per-packet loss probability (forward link).
    reverse_rate_mbps: reverse-direction rate; defaults to ``rate_mbps``.
    reverse_queue_bytes: reverse queue; defaults to ``queue_bytes``.
    """

    name: str
    rate_mbps: float
    one_way_delay: float
    queue_bytes: int = 34_000
    loss_rate: float = 0.0
    reverse_rate_mbps: Optional[float] = None
    reverse_queue_bytes: Optional[int] = None


#: Queue floor so low-bandwidth regulations exhibit the bufferbloat RTTs
#: of Table 2 and the multi-second slow-path stragglers of Figs 3/5/13.
#: ``tc`` qdiscs are sized in packets (default ~1000) and so hold many
#: seconds at 0.3 Mbps; 100 kB (~66 segments) reproduces the observed
#: 1-2.5 s last-packet gaps without the unbounded worst case.
QUEUE_FLOOR_BYTES = 100_000

#: Queue also scales with rate (like a tc qdisc sized in packets).  The
#: depth is chosen to absorb a post-idle burst of a full congestion
#: window without drops -- the testbed's pfifo qdisc (1000 packets) did
#: the same -- while keeping the post-loss window at or above the path
#: BDP so a busy subflow sustains the regulated rate.
WIFI_QUEUE_SECONDS = 0.15
LTE_QUEUE_SECONDS = 0.25

#: Propagation delays calibrated against Table 2's high-bandwidth entries.
WIFI_ONE_WAY_DELAY = 0.015
LTE_ONE_WAY_DELAY = 0.048


def queue_bytes_for(rate_mbps: float, queue_seconds: float, floor: int = QUEUE_FLOOR_BYTES) -> int:
    """Drop-tail queue size for a regulated rate (max of floor and BDP-ish)."""
    return max(floor, int(rate_mbps * 1e6 * queue_seconds / 8.0))


def wifi_config(rate_mbps: float, loss_rate: float = 0.0) -> PathConfig:
    """Testbed WiFi (campus network) regulated to ``rate_mbps``."""
    return PathConfig(
        name="wifi",
        rate_mbps=rate_mbps,
        one_way_delay=WIFI_ONE_WAY_DELAY,
        queue_bytes=queue_bytes_for(rate_mbps, WIFI_QUEUE_SECONDS),
        loss_rate=loss_rate,
    )


def lte_config(rate_mbps: float, loss_rate: float = 0.0) -> PathConfig:
    """Testbed AT&T LTE regulated to ``rate_mbps``."""
    return PathConfig(
        name="lte",
        rate_mbps=rate_mbps,
        one_way_delay=LTE_ONE_WAY_DELAY,
        queue_bytes=queue_bytes_for(rate_mbps, LTE_QUEUE_SECONDS),
        loss_rate=loss_rate,
    )


def wild_wifi_config(rng: random.Random) -> PathConfig:
    """One in-the-wild WiFi draw (public town WiFi, Section 6).

    The paper's nine runs span WiFi RTTs from ~70 ms to ~1 s.  A congested
    public access point is bad on every axis at once, so a single quality
    draw drives RTT, bandwidth, and loss together: a poor draw yields the
    ~1 s, sub-Mbps, lossy WiFi of the paper's worst runs, a good draw a
    crisp ~50 ms, ~8 Mbps one.
    """
    quality = rng.random()
    low_rtt, high_rtt = 0.05, 0.9
    base_rtt = high_rtt * (low_rtt / high_rtt) ** quality
    rate = 0.5 + 7.5 * quality ** 1.2
    return PathConfig(
        name="wifi",
        rate_mbps=rate,
        one_way_delay=base_rtt / 2.0,
        queue_bytes=queue_bytes_for(rate, WIFI_QUEUE_SECONDS),
        loss_rate=0.008 * (1.0 - quality),
    )


def wild_lte_config(rng: random.Random) -> PathConfig:
    """One in-the-wild LTE draw: stable ~70 ms RTT, ample bandwidth.

    Cellular link-layer retransmission hides almost all radio loss from
    TCP, so the residual random loss is kept below 0.1% -- any more and
    the Mathis limit caps the paper's observed ~8 Mbps LTE throughput.
    """
    base_rtt = rng.uniform(0.060, 0.080)
    rate = rng.uniform(8.0, 12.0)
    return PathConfig(
        name="lte",
        rate_mbps=rate,
        one_way_delay=base_rtt / 2.0,
        queue_bytes=queue_bytes_for(rate, LTE_QUEUE_SECONDS),
        loss_rate=rng.uniform(0.0, 0.001),
    )


def make_path(
    sim: Simulator,
    config: PathConfig,
    rng: Optional[random.Random] = None,
) -> Path:
    """Instantiate a bidirectional :class:`Path` from a profile.

    ``rng`` is required when the profile has a non-zero loss rate.
    """
    forward = Link(
        sim,
        rate_bps=config.rate_mbps * 1e6,
        delay=config.one_way_delay,
        queue_bytes=config.queue_bytes,
        loss_rate=config.loss_rate,
        rng=rng,
        name=f"{config.name}-fwd",
    )
    reverse_rate = (
        config.reverse_rate_mbps if config.reverse_rate_mbps is not None else config.rate_mbps
    )
    reverse_queue = (
        config.reverse_queue_bytes
        if config.reverse_queue_bytes is not None
        else config.queue_bytes
    )
    reverse = Link(
        sim,
        rate_bps=reverse_rate * 1e6,
        delay=config.one_way_delay,
        queue_bytes=reverse_queue,
        loss_rate=0.0,
        rng=rng,
        name=f"{config.name}-rev",
    )
    return Path(config.name, forward, reverse)
