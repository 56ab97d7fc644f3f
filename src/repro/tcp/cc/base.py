"""Congestion-controller interface.

A controller is attached to an MPTCP connection and consulted by each
subflow on acknowledgement and loss events.  Window state (``cwnd``,
``ssthresh``) lives on the subflow; the controller only decides how it
moves.  Slow start and the multiplicative decreases are common to all
controllers here (RFC 6356 couples only the congestion-avoidance
*increase*), so the base class implements them and subclasses override
:meth:`ca_increase`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.sim import probe as _probe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tcp.subflow import Subflow

#: Minimum congestion window, in segments (RFC 5681 loss-window floor).
MIN_CWND = 1.0


class CongestionController:
    """Base class: per-subflow slow start + Reno-style decrease."""

    name = "base"

    __slots__ = ("_subflows",)

    def __init__(self) -> None:
        self._subflows: List["Subflow"] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register(self, subflow: "Subflow") -> None:
        """Attach a subflow; coupled controllers iterate the registry."""
        if subflow not in self._subflows:
            self._subflows.append(subflow)

    @property
    def subflows(self) -> List["Subflow"]:
        return self._subflows

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def on_ack(self, subflow: "Subflow", acked_segments: int = 1) -> None:
        """Grow the window on one new, non-duplicate acknowledgement.

        One ACK per call: the subflow calls this once per newly acked
        segment.  ``acked_segments`` is accepted only as 1, for callers
        that spell the count out (the benchmark's per-controller probe);
        a batch of ACKs is that many calls.
        """
        if acked_segments != 1:
            raise ValueError(f"on_ack handles one ACK per call, got {acked_segments!r}")
        cwnd = subflow.cwnd
        if cwnd < subflow.ssthresh:
            cwnd += 1.0  # slow start
        else:
            cwnd += self.ca_increase(subflow)
        max_cwnd = subflow.max_cwnd
        subflow.cwnd = max_cwnd if max_cwnd < cwnd else cwnd  # min(cwnd, max_cwnd)
        probe = _probe.ACTIVE
        if probe is not None:
            probe.audit_cwnd(subflow)

    def on_loss(self, subflow: "Subflow") -> None:
        """Fast-retransmit decrease: halve, per RFC 5681/6356."""
        subflow.ssthresh = max(subflow.flight / 2.0, 2.0)
        subflow.cwnd = max(subflow.ssthresh, MIN_CWND)
        probe = _probe.ACTIVE
        if probe is not None:
            probe.audit_cwnd(subflow)

    def on_rto(self, subflow: "Subflow") -> None:
        """Timeout: collapse to one segment and re-enter slow start."""
        subflow.ssthresh = max(subflow.flight / 2.0, 2.0)
        subflow.cwnd = MIN_CWND
        probe = _probe.ACTIVE
        if probe is not None:
            probe.audit_cwnd(subflow)

    # ------------------------------------------------------------------
    # Policy hook
    # ------------------------------------------------------------------
    def ca_increase(self, subflow: "Subflow") -> float:
        """Congestion-avoidance increase per acked segment (in segments)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(subflows={len(self._subflows)})"
