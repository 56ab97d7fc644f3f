"""OLIA: opportunistic linked-increases algorithm (Khalili et al. CoNEXT'12).

For each ACK on subflow *i* in congestion avoidance::

    cwnd_i += ( cwnd_i / rtt_i^2 ) / ( sum_j cwnd_j / rtt_j )^2  +  alpha_i / cwnd_i

where ``alpha_i`` shifts traffic toward the *best* paths:

* ``M`` = paths with maximum ``l_i^2 / rtt_i`` (``l_i`` = bytes transmitted
  since the last loss, a proxy for path quality);
* ``B`` = best paths that currently have the largest window ("collected"
  paths in the paper's terminology are best paths with small windows);
* paths in ``M`` with small windows get ``+1/(|M| * n)``, paths with the
  largest window that are not in ``M`` get ``-1/(|B'| * n)``, everything
  else 0 (``n`` = number of paths).

This is the standard simulator-grade OLIA used outside the kernel; it
preserves OLIA's defining behaviour (probing toward better paths without
flappiness) which is all the paper relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.tcp.cc.base import CongestionController
from repro.tcp.cc.coupled import DEFAULT_RTT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tcp.subflow import Subflow

_EPS = 1e-12


class OliaController(CongestionController):
    """OLIA coupled increase."""

    name = "olia"

    __slots__ = ()

    def _alpha(self, subflow: "Subflow") -> float:
        return self._denom_and_alpha(subflow)[1]

    def _denom_and_alpha(self, subflow: "Subflow") -> Tuple[float, float]:
        """``(sum_j cwnd_j / rtt_j, alpha_i)``: each path's window, RTT and
        quality ``l^2 / rtt`` are read once per ACK, in one loop."""
        paths = self._subflows
        cwnds = []
        qualities = []
        denom = 0.0
        for sf in paths:
            rtt = sf.rtt.srtt or DEFAULT_RTT
            cwnd = sf.cwnd
            inter_loss = float(max(sf.stats.bytes_since_loss, sf.mss))
            cwnds.append(cwnd)
            qualities.append(inter_loss * inter_loss / rtt)
            denom += cwnd / rtt
        n = len(paths)
        if n <= 1:
            return denom, 0.0
        best_quality = max(qualities) * (1 - 1e-9)
        max_cwnd = max(cwnds) * (1 - 1e-9)
        # largest: the widest windows; collected: best paths that are not.
        largest = collected = 0
        sign = 0.0
        for sf, cwnd, quality in zip(paths, cwnds, qualities):
            if cwnd >= max_cwnd:
                largest += 1
                if sf is subflow:
                    sign = -1.0
            elif quality >= best_quality:
                collected += 1
                if sf is subflow:
                    sign = 1.0
        if not collected or not sign:
            return denom, 0.0
        return denom, sign / ((collected if sign > 0 else largest) * n)

    def ca_increase(self, subflow: "Subflow") -> float:
        denom, alpha = self._denom_and_alpha(subflow)
        denom = max(denom, _EPS)
        rtt_i = subflow.rtt.srtt or DEFAULT_RTT
        # For a single path this reduces to Reno's 1/cwnd.
        increase = (subflow.cwnd / (rtt_i * rtt_i)) / (denom * denom)
        total = increase + alpha / max(subflow.cwnd, 1.0)
        # Never shrink faster than a segment per ACK nor outgrow slow start.
        return max(-1.0, min(1.0, total))
