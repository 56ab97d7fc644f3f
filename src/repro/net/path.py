"""Bidirectional path: the network an MPTCP subflow runs over.

A :class:`Path` pairs a *forward* link (server -> client: data segments)
with a *reverse* link (client -> server: ACKs and HTTP requests).  In the
paper each path corresponds to one interface pair (e.g. server Ethernet to
client WiFi), regulated with ``tc`` on the server side; here the forward
link carries the regulation and the bufferbloat queue, while the reverse
link is configured from the same profile.
"""

from __future__ import annotations

from typing import Optional

from repro.net.link import Link
from repro.sim.engine import Simulator


class Path:
    """Forward/reverse link pair with a human-readable identity.

    Attributes
    ----------
    name:
        Interface label, e.g. ``"wifi"`` or ``"lte"``.
    forward:
        Link carrying data from server to client.
    reverse:
        Link carrying ACKs/requests from client to server.
    """

    __slots__ = ("name", "forward", "reverse")

    def __init__(self, name: str, forward: Link, reverse: Link) -> None:
        self.name = name
        self.forward = forward
        self.reverse = reverse

    @property
    def sim(self) -> Simulator:
        return self.forward.sim

    @property
    def rate_bps(self) -> float:
        """Forward (data-direction) regulated rate."""
        return self.forward.rate_bps

    def set_rate(self, rate_bps: float, reverse_rate_bps: Optional[float] = None) -> None:
        """Re-regulate the path, like re-running ``tc`` mid-experiment.

        The reverse direction follows the forward rate unless given
        explicitly; ACK traffic is tiny so this mainly affects request
        latency under load.
        """
        self.forward.set_rate(rate_bps)
        self.reverse.set_rate(reverse_rate_bps if reverse_rate_bps is not None else rate_bps)

    @property
    def base_rtt(self) -> float:
        """Propagation-only round-trip time (no queueing, no serialization)."""
        return self.forward.delay + self.reverse.delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Path({self.name!r}, {self.rate_bps / 1e6:.2f} Mbps, "
            f"base_rtt={self.base_rtt * 1e3:.1f} ms)"
        )
