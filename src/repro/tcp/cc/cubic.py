"""CUBIC congestion control (Ha, Rhee, Xu -- the Linux default).

The paper's subflows run the coupled MPTCP controllers, but the testbed's
single-path TCP baseline (and any modern comparison point) runs CUBIC, so
the library provides it: window growth is a cubic function of time since
the last decrease, anchored at the pre-loss window ``w_max``::

    W(t) = C * (t - K)^3 + w_max,    K = cbrt(w_max * beta_drop / C)

with the standard TCP-friendliness lower bound (track what Reno would
achieve) and a gentler multiplicative decrease (0.7 rather than 0.5).

This is a per-subflow (uncoupled) controller: pair it with MPTCP only to
model "uncoupled CUBIC subflows", a configuration the MPTCP literature
uses as an upper bound on aggressiveness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.sim import probe as _probe
from repro.tcp.cc.base import MIN_CWND, CongestionController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tcp.subflow import Subflow

#: CUBIC scaling constant (RFC 8312).
C = 0.4

#: CUBIC multiplicative decrease factor (RFC 8312).
BETA_CUBIC = 0.7


class _CubicState:
    __slots__ = ("w_max", "epoch_start", "k", "reno_cwnd")

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = ("w_max", "epoch_start", "k", "reno_cwnd")

    def __init__(self) -> None:
        self.w_max = 0.0
        self.epoch_start = -1.0
        self.k = 0.0
        self.reno_cwnd = 0.0


class CubicController(CongestionController):
    """RFC 8312 CUBIC, per-subflow."""

    name = "cubic"

    __slots__ = ("_state",)

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the rest).
    STATE_FIELDS = ("_state",)

    def __init__(self) -> None:
        super().__init__()
        # Keyed by the subflow itself (identity hash), NOT id(subflow):
        # a snapshot restore builds new subflow objects, and object keys
        # follow them through the reference table while raw ids would
        # dangle and silently reset every CUBIC epoch.
        self._state: Dict["Subflow", _CubicState] = {}

    def _state_for(self, subflow: "Subflow") -> _CubicState:
        state = self._state.get(subflow)
        if state is None:
            state = _CubicState()
            self._state[subflow] = state
        return state

    def ca_increase(self, subflow: "Subflow") -> float:
        state = self._state_for(subflow)
        now = subflow.sim.now
        rtt = subflow.srtt_or_default()
        cwnd = subflow.cwnd
        if state.epoch_start < 0:
            state.epoch_start = now
            if state.w_max < cwnd:
                state.w_max = cwnd
            state.k = ((state.w_max * (1.0 - BETA_CUBIC)) / C) ** (1.0 / 3.0)
            state.reno_cwnd = cwnd
        t = now - state.epoch_start + rtt
        target = C * (t - state.k) ** 3 + state.w_max
        floor = 1.0 if cwnd < 1.0 else cwnd  # max(cwnd, 1.0), without the C call
        # TCP-friendly region: emulate Reno's average rate.
        reno_cwnd = state.reno_cwnd + 3.0 * (1.0 - BETA_CUBIC) / (1.0 + BETA_CUBIC) / floor
        state.reno_cwnd = reno_cwnd
        if reno_cwnd > target:
            target = reno_cwnd  # max(target, reno_cwnd)
        if target <= cwnd:
            # In the concave plateau: probe very gently.
            return 0.01 / floor
        # Spread the distance-to-target over one window of ACKs: min(1.0, step).
        step = (target - cwnd) / floor
        return step if step < 1.0 else 1.0

    def on_loss(self, subflow: "Subflow") -> None:
        state = self._state_for(subflow)
        state.w_max = subflow.cwnd
        state.epoch_start = -1.0
        subflow.ssthresh = max(subflow.cwnd * BETA_CUBIC, 2.0)
        subflow.cwnd = max(subflow.cwnd * BETA_CUBIC, MIN_CWND)
        probe = _probe.ACTIVE
        if probe is not None:
            probe.audit_cwnd(subflow)

    def on_rto(self, subflow: "Subflow") -> None:
        state = self._state_for(subflow)
        state.w_max = subflow.cwnd
        state.epoch_start = -1.0
        super().on_rto(subflow)
