"""Coupled congestion control (LIA, RFC 6356 / Wischik et al. NSDI'11).

The MPTCP default.  In congestion avoidance, for each ACK on subflow *i*::

    cwnd_i += min(alpha / cwnd_total, 1 / cwnd_i)

with::

    alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / (sum_i cwnd_i / rtt_i)^2

The coupling is the mechanism behind the paper's Section 3.2 observation:
when an idle reset collapses the fast subflow's CWND, the coupled increase
(shared ``alpha`` across subflows) grows it back slowly, so one reset hurts
the fast path for many RTTs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.tcp.cc.base import CongestionController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tcp.subflow import Subflow

#: RTT assumed for a subflow before its first measurement.
DEFAULT_RTT = 0.1


class CoupledController(CongestionController):
    """RFC 6356 linked-increase algorithm."""

    name = "coupled"

    __slots__ = ()

    def alpha(self) -> float:
        """The LIA aggressiveness factor over all registered subflows."""
        return self._alpha_and_total()[0]

    def _alpha_and_total(self) -> Tuple[float, float]:
        """``(alpha, total_cwnd)`` from one loop.  ``total_cwnd`` stays a
        ``sum()`` and ``denom`` a ``+=``: 3.12's ``sum()`` compensates
        float addition, so respelling either moves the last digit."""
        cwnds = []
        best = 0.0
        denom = 0.0
        for sf in self._subflows:
            cwnd = sf.cwnd
            cwnds.append(cwnd)
            rtt = sf.rtt.srtt or DEFAULT_RTT
            rate = cwnd / (rtt * rtt)
            if rate > best:
                best = rate
            denom += cwnd / rtt
        total_cwnd = sum(cwnds)
        if total_cwnd <= 0 or denom <= 0:
            return 1.0, total_cwnd
        return total_cwnd * best / (denom * denom), total_cwnd

    def ca_increase(self, subflow: "Subflow") -> float:
        alpha, total_cwnd = self._alpha_and_total()
        uncoupled = 1.0 / max(subflow.cwnd, 1.0)
        if total_cwnd <= 0:
            return uncoupled
        return min(alpha / total_cwnd, uncoupled)
