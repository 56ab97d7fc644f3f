"""Multi-hop paths and shared bottlenecks.

The basic :class:`~repro.net.path.Path` is a single regulated link pair --
the paper's testbed, where ``tc`` on the server was the only bottleneck.
Real multipath deployments often share capacity deeper in the network
(both subflows crossing one congested backhaul), which is exactly the
regime coupled congestion control was designed for.  This module builds
paths from chains of links so such topologies can be expressed:

* :class:`LinkSpec` -- one hop's parameters;
* :func:`chain_path` -- a path whose forward direction traverses several
  hops in sequence (each hop its own queue);
* :func:`shared_bottleneck` -- two access paths that converge on one
  shared bottleneck link, the canonical "is MPTCP fair to TCP?" topology.

Hops are composed with :class:`CompositeForward`, which feeds a packet
through each link in turn (the delivery callback of hop *i* is the send
of hop *i+1*), so per-hop serialization, queueing, and drops all apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import random

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.path import Path
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class LinkSpec:
    """Parameters of one hop."""

    rate_mbps: float
    one_way_delay: float
    queue_bytes: int = 150_000
    loss_rate: float = 0.0
    name: str = "hop"

    def build(self, sim: Simulator, rng: Optional[random.Random], suffix: str) -> Link:
        return Link(
            sim,
            rate_bps=self.rate_mbps * 1e6,
            delay=self.one_way_delay,
            queue_bytes=self.queue_bytes,
            loss_rate=self.loss_rate,
            rng=rng,
            name=f"{self.name}-{suffix}",
        )


class CompositeForward:
    """A forward 'link' made of several hops in sequence.

    Exposes the subset of the :class:`~repro.net.link.Link` interface the
    rest of the stack uses (``send``, ``rate_bps``, ``delay``,
    ``set_rate``, ``stats`` of the entry hop), while internally forwarding
    each delivered packet into the next hop.
    """

    __slots__ = ("hops",)

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the
    #: rest).  Note the per-hop delivery lambdas created mid-flight by
    #: ``_send_hop`` are *not* snapshot-safe: checkpoint composite-path
    #: worlds only at quiescent points, or use single-hop paths.
    STATE_FIELDS = ("hops",)

    def __init__(self, hops: Sequence[Link]) -> None:
        if not hops:
            raise ValueError("a composite path needs at least one hop")
        self.hops: List[Link] = list(hops)

    # -- Link-compatible surface ---------------------------------------
    @property
    def sim(self) -> Simulator:
        return self.hops[0].sim

    @property
    def rate_bps(self) -> float:
        """The chain's bottleneck rate."""
        return min(h.rate_bps for h in self.hops)

    @property
    def delay(self) -> float:
        """Total propagation delay along the chain."""
        return sum(h.delay for h in self.hops)

    def set_rate(self, rate_bps: float) -> None:
        """Re-regulate the entry hop (the access link)."""
        self.hops[0].set_rate(rate_bps)

    @property
    def stats(self):
        """Entry-hop statistics (drops can also occur at later hops)."""
        return self.hops[0].stats

    def transit_estimate(self, size: int) -> float:
        return sum(h.transit_estimate(size) for h in self.hops)

    def send(self, packet: Packet, on_delivery: Callable[[Packet], None]) -> bool:
        return self._send_hop(0, packet, on_delivery)

    def _send_hop(self, index: int, packet: Packet, on_delivery) -> bool:
        if index == len(self.hops) - 1:
            return self.hops[index].send(packet, on_delivery)
        return self.hops[index].send(
            packet, lambda p, i=index: self._send_hop(i + 1, p, on_delivery)
        )

    def total_drops(self) -> int:
        """Packets lost at any hop of the chain."""
        return sum(h.stats.packets_dropped for h in self.hops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompositeForward({len(self.hops)} hops, {self.rate_bps / 1e6:.2f} Mbps)"


def chain_path(
    sim: Simulator,
    name: str,
    forward_hops: Sequence[LinkSpec],
    reverse_spec: Optional[LinkSpec] = None,
    rng: Optional[random.Random] = None,
) -> Path:
    """Build a path whose data direction traverses ``forward_hops``.

    The reverse (ACK) direction is a single link: ``reverse_spec`` or a
    mirror of the chain's total delay at the bottleneck rate.
    """
    hops = [
        spec.build(sim, rng, f"{name}-fwd{i}") for i, spec in enumerate(forward_hops)
    ]
    forward = CompositeForward(hops)
    if reverse_spec is None:
        reverse_spec = LinkSpec(
            rate_mbps=forward.rate_bps / 1e6,
            one_way_delay=forward.delay,
            name=f"{name}-rev",
        )
    reverse = reverse_spec.build(sim, rng, f"{name}-rev")
    return Path(name, forward, reverse)


def shared_bottleneck(
    sim: Simulator,
    access_a: LinkSpec,
    access_b: LinkSpec,
    bottleneck: LinkSpec,
    rng: Optional[random.Random] = None,
) -> List[Path]:
    """Two access paths converging on one shared bottleneck link.

    Both returned paths' forward directions traverse their own access hop
    and then the *same* bottleneck :class:`Link` instance, so they contend
    for its queue -- the topology where coupled congestion control must
    not outcompete a single TCP flow.
    """
    shared = bottleneck.build(sim, rng, "shared")
    paths: List[Path] = []
    for label, access in (("a", access_a), ("b", access_b)):
        entry = access.build(sim, rng, f"{label}-access")
        forward = CompositeForward([entry, shared])
        reverse = LinkSpec(
            rate_mbps=min(access.rate_mbps, bottleneck.rate_mbps),
            one_way_delay=access.one_way_delay + bottleneck.one_way_delay,
            name=f"{label}-rev",
        ).build(sim, rng, f"{label}-rev")
        paths.append(Path(label, forward, reverse))
    return paths
