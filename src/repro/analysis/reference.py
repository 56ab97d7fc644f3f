"""Reference scheduler models: Algorithm 1 transcribed from the paper.

These are *independent re-implementations* used as differential oracles:
the production schedulers log every decision with its raw inputs
(:class:`repro.analysis.events.EcfDecision`,
:class:`repro.analysis.events.Decision`), and the replay functions
here recompute what the paper says the decision should have been from
those inputs alone.  A divergence means the implementation and the paper
disagree -- either a bug or an intentional deviation that must be
documented.

The ECF reference is deliberately written from the paper's Algorithm 1
pseudocode (Section 4), not from ``repro/core/ecf.py``: it keeps its own
``waiting`` hysteresis state machine and recomputes the threshold rather
than trusting the logged one.  Keep it that way -- an oracle that shares
code with the subject checks nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.events import Decision, EcfDecision


@dataclass(frozen=True)
class Divergence:
    """One decision where the implementation and the reference disagree."""

    index: int  # position in the replayed decision sequence
    t: float
    expected: str
    actual: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - message formatting
        return (
            f"decision #{self.index} at t={self.t:.6f}: reference says "
            f"{self.expected!r}, implementation did {self.actual!r} ({self.detail})"
        )


class EcfReference:
    """Algorithm 1 from the paper, as a standalone state machine.

    Replays one scheduler instance's decision stream: feed it the logged
    inputs of each decision in order and it answers ``"wait"`` or
    ``"slow"``, tracking the ``waiting`` hysteresis flag itself.

    Paper semantics (Section 4, Algorithm 1), with ``k`` the unassigned
    send-buffer bytes in segments, ``x_f``/``x_s`` the fastest and
    candidate subflows, ``n = 1 + ceil(k/CWND_f)`` fast-path rounds, and
    ``delta = max(sigma_f, sigma_s)``::

        if n * RTT_f < (1 + waiting * beta) * (RTT_s + delta):
            if ceil(k/CWND_s) * RTT_s >= 2 * RTT_f + delta:
                waiting = True          -> wait for the fast subflow
            else:
                -> send on the slow subflow (waiting unchanged)
        else:
            waiting = False             -> send on the slow subflow
    """

    def __init__(self, beta: float, use_second_inequality: bool = True) -> None:
        self.beta = beta
        self.use_second_inequality = use_second_inequality
        self.waiting = False

    def decide(
        self,
        k_segments: float,
        rtt_f: float,
        rtt_s: float,
        cwnd_f: float,
        cwnd_s: float,
        delta: float,
    ) -> str:
        """One Algorithm 1 evaluation; returns ``"wait"`` or ``"slow"``."""
        n = 1.0 + math.ceil(k_segments / max(cwnd_f, 1.0))
        threshold = (1.0 + (self.beta if self.waiting else 0.0)) * (rtt_s + delta)
        if n * rtt_f < threshold:
            if not self.use_second_inequality:
                self.waiting = True
                return "wait"
            rounds_s = math.ceil(k_segments / max(cwnd_s, 1.0))
            if rounds_s * rtt_s >= 2.0 * rtt_f + delta:
                self.waiting = True
                return "wait"
            return "slow"
        self.waiting = False
        return "slow"


def mandated_wait(dec: EcfDecision) -> bool:
    """Did Algorithm 1 mandate waiting, re-derived from one decision's
    logged inputs and threshold (stateless, unlike :func:`replay_ecf`)?

    Non-finite RTTs are resolved first: a dead fast path is never worth
    waiting for, a dead slow path never worth sending on.
    """
    if not math.isfinite(dec.rtt_f):
        return False
    if not math.isfinite(dec.rtt_s):
        return True
    if not dec.n_rounds * dec.rtt_f < dec.threshold:
        return False
    if not dec.use_second_inequality:
        return True
    rounds_s = math.ceil(dec.k_segments / max(dec.cwnd_s, 1.0))
    return rounds_s * dec.rtt_s >= 2.0 * dec.rtt_f + dec.delta


def replay_ecf(decisions: Sequence[EcfDecision]) -> List[Divergence]:
    """Differentially replay one ECF scheduler's logged decision stream.

    ``decisions`` must belong to a single scheduler instance (one
    ``sched_uid``), in emission order; mixing instances interleaves
    unrelated hysteresis states.  After a divergence the reference's
    ``waiting`` flag is resynchronized to the implementation's logged
    ``waiting_after``, so one bug yields one report instead of a cascade
    of bogus follow-on divergences.
    """
    uids = {d.sched_uid for d in decisions}
    if len(uids) > 1:
        raise ValueError(
            f"replay_ecf() takes one scheduler's decisions, got uids {sorted(uids)}"
        )
    divergences: List[Divergence] = []
    model: EcfReference = None  # type: ignore[assignment]
    for index, dec in enumerate(decisions):
        if model is None:
            model = EcfReference(dec.beta, dec.use_second_inequality)
        if model.waiting != dec.waiting_before:
            # State drift without a decision divergence means the
            # implementation mutated `waiting` outside Algorithm 1.
            divergences.append(Divergence(
                index=index,
                t=dec.t,
                expected=f"waiting={model.waiting}",
                actual=f"waiting={dec.waiting_before}",
                detail="hysteresis state drifted between decisions",
            ))
            model.waiting = dec.waiting_before
        expected = model.decide(
            k_segments=dec.k_segments,
            rtt_f=dec.rtt_f,
            rtt_s=dec.rtt_s,
            cwnd_f=dec.cwnd_f,
            cwnd_s=dec.cwnd_s,
            delta=dec.delta,
        )
        if expected != dec.decision:
            divergences.append(Divergence(
                index=index,
                t=dec.t,
                expected=expected,
                actual=dec.decision,
                detail=(
                    f"k={dec.k_segments:.1f} cwnd_f={dec.cwnd_f:.1f} "
                    f"cwnd_s={dec.cwnd_s:.1f} rtt_f={dec.rtt_f:.4f} "
                    f"rtt_s={dec.rtt_s:.4f} delta={dec.delta:.4f} "
                    f"waiting_before={dec.waiting_before}"
                ),
            ))
            model.waiting = dec.waiting_after
    return divergences


def replay_minrtt(decisions: Sequence[Decision]) -> List[Divergence]:
    """Check every logged minRTT pick against "smallest SRTT first".

    The paper's default scheduler "selects the subflow with the smallest
    RTT for which there is available congestion window space"; the log
    records the candidate set (already filtered to window-open subflows)
    with their SRTTs, so the reference is a pure argmin with the
    implementation's documented tie-break (lowest subflow id).
    """
    divergences: List[Divergence] = []
    for index, dec in enumerate(decisions):
        if not dec.available:
            expected = None
        else:
            expected = min(dec.available, key=lambda pair: (pair[1], pair[0]))[0]
        if expected != dec.chosen_sf:
            divergences.append(Divergence(
                index=index,
                t=dec.t,
                expected=f"sf={expected}",
                actual=f"sf={dec.chosen_sf}",
                detail=f"candidates={dec.available!r}",
            ))
    return divergences
