"""MP-DASH-style deadline-aware path management (Han et al., CoNEXT 2016).

The paper's Section 7 contrasts ECF with MP-DASH: "it activates and
deactivates cellular paths according to required bandwidths to meet
deadlines for chunk downloads regardless of path heterogeneity", and it
requires cross-layer knowledge (the streaming client's rate requirement)
plus client and server modifications -- where ECF is a transparent
server-side per-packet scheduler.

This module implements that policy so the two approaches can be compared
inside the same stack:

* :class:`~repro.core.extras.MpDashScheduler` (a plain scheduler, so it
  lives in ``repro.core``) prefers the preferred (primary, typically
  WiFi) interface, and admits the cellular interfaces only while they
  are *activated*;
* :class:`MpDashPathManager` is the cross-layer half: the DASH player
  tells it each chunk's bitrate and deadline (the chunk duration), it
  estimates the preferred path's current rate from CWND/SRTT, and
  activates cellular only when the preferred path alone would miss the
  deadline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.extras import MpDashScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.dash.media import Representation
    from repro.apps.dash.player import DashPlayer
    from repro.mptcp.connection import MptcpConnection

#: Safety margin on the required rate before cellular is activated
#: (MP-DASH activates early enough to make the deadline, not exactly).
DEFAULT_MARGIN = 1.2


class MpDashPathManager:
    """Cross-layer deadline monitor driving the activation gate.

    Wire it to a player with :meth:`attach`; on every chunk request it
    re-evaluates whether the preferred path alone sustains the chunk's
    bitrate (chunk bytes over chunk duration) with a safety margin.
    """

    __slots__ = ("scheduler", "conn", "margin", "requirements_seen")

    def __init__(
        self,
        scheduler: MpDashScheduler,
        conn: "MptcpConnection",
        margin: float = DEFAULT_MARGIN,
    ) -> None:
        if margin <= 0:
            raise ValueError(f"margin must be positive, got {margin!r}")
        self.scheduler = scheduler
        self.conn = conn
        self.margin = margin
        self.requirements_seen = 0

    def attach(self, player: "DashPlayer") -> None:
        player.on_chunk_request = self.on_chunk_request

    def preferred_rate_estimate_bps(self) -> float:
        """Current deliverable rate of the preferred path: CWND per RTT."""
        preferred = self.conn.subflows[0]
        srtt = preferred.srtt_or_default()
        if srtt <= 0:
            return 0.0
        return preferred.cwnd * preferred.mss * 8.0 / srtt

    def on_chunk_request(self, representation: "Representation", chunk_duration: float) -> None:
        self.requirements_seen += 1
        required = representation.bitrate_bps * self.margin
        self.scheduler.cellular_active = self.preferred_rate_estimate_bps() < required

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MpDashPathManager(margin={self.margin}, "
            f"cellular_active={self.scheduler.cellular_active})"
        )
