"""Uncoupled per-subflow Reno (NewReno-style AIMD).

Each subflow behaves like an independent TCP connection: in congestion
avoidance the window grows by one segment per window's worth of ACKs.
Useful as a baseline and for single-path sanity tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tcp.cc.base import CongestionController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tcp.subflow import Subflow


class RenoController(CongestionController):
    """Standard AIMD: +1/cwnd per acked segment in congestion avoidance."""

    name = "reno"

    __slots__ = ()

    def ca_increase(self, subflow: "Subflow") -> float:
        cwnd = subflow.cwnd
        return 1.0 / (1.0 if cwnd < 1.0 else cwnd)  # 1 / max(cwnd, 1.0)
