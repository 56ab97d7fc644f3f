"""ECF: Earliest Completion First (Section 4, Algorithm 1).

ECF asks a single question when the fastest subflow is momentarily full:
*will sending the remaining data on a slower subflow finish later than
just waiting for the fast one?*  It answers using everything the sender
knows -- RTT estimates, congestion windows, and the amount of data still
queued in the connection-level send buffer (``k``).

With ``x_f``/``x_s`` the fastest and candidate subflows, ``n = 1 +
k/CWND_f`` the number of fast-path rounds needed to move ``k``, and
``delta = max(sigma_f, sigma_s)`` a variability margin, ECF waits for the
fast subflow iff both::

    n * RTT_f < (1 + waiting * beta) * (RTT_s + delta)        (worth waiting)
    (k / CWND_s) * RTT_s >= 2 * RTT_f + delta                 (slow path really slower)

The ``waiting`` flag adds hysteresis (``beta = 0.25`` in the paper's
experiments) so the decision does not flap between consecutive segments.

The payoff, per the paper: the fast subflow never sits idle waiting for a
slow-path tail, so its congestion window is not reset by the idle-restart
rule, and consecutive downloads (DASH chunks, Web objects) start with a
hot window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.base import Scheduler
from repro.sim import probe as _probe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mptcp.connection import MptcpConnection
    from repro.tcp.subflow import Subflow

#: Paper's hysteresis constant ("set to 0.25 throughout our experiments").
DEFAULT_BETA = 0.25


@dataclass(frozen=True)
class EcfInputs:
    """Everything Algorithm 1 reads for one wait-or-send decision.

    Gathered by :meth:`EcfScheduler._decision_inputs` and passed to
    :meth:`EcfScheduler._evaluate`; also what gets logged with every
    decision so the reference oracle in :mod:`repro.analysis.reference`
    can replay it offline.
    """

    k_segments: float
    rtt_f: float
    rtt_s: float
    cwnd_f: float
    cwnd_s: float
    delta: float
    n_rounds: float
    threshold: float


class EcfScheduler(Scheduler):
    """Earliest Completion First.

    Parameters
    ----------
    beta:
        Hysteresis factor applied to the waiting threshold once the
        scheduler is already in the waiting state.
    use_second_inequality:
        Ablation hook: when False, the additional
        ``k/CWND_s * RTT_s >= 2 RTT_f + delta`` check is skipped and the
        first inequality alone decides (DESIGN.md Section 5).
    """

    name = "ecf"

    __slots__ = (
        "beta",
        "use_second_inequality",
        "waiting",
        "ecf_decisions",
        "forced_decisions",
    )

    #: The snapshot contract: the fields this class gives birth to
    #: (checkpoint/fork copies exactly these; snapshot.capture refuses the rest).
    STATE_FIELDS = (
        "beta",
        "use_second_inequality",
        "waiting",
        "ecf_decisions",
        "forced_decisions",
    )

    def __init__(self, beta: float = DEFAULT_BETA, use_second_inequality: bool = True) -> None:
        super().__init__()
        # NaN compares false against everything, so a plain `beta < 0`
        # check lets it through and silently poisons both inequalities.
        if not math.isfinite(beta) or beta < 0:
            raise ValueError(f"beta must be finite and non-negative, got {beta!r}")
        self.beta = beta
        self.use_second_inequality = use_second_inequality
        self.waiting = False
        #: Monotone count of Algorithm 1 evaluations -- the index the
        #: twin-run driver keys its forced-choice overrides on.
        self.ecf_decisions = 0
        #: Decision index -> "wait" | "slow".  A forked world forces the
        #: counterfactual choice here; the hysteresis update still runs
        #: on the final (forced) value, so forcing the choice the
        #: scheduler would have made anyway replays byte-identically.
        self.forced_decisions: Dict[int, str] = {}

    def force_decision(self, index: int, choice: str) -> None:
        """Override Algorithm 1's outcome for the ``index``-th decision."""
        if choice not in ("wait", "slow"):
            raise ValueError(f"choice must be 'wait' or 'slow', got {choice!r}")
        self.forced_decisions[index] = choice

    def select(self, conn: "MptcpConnection") -> Optional["Subflow"]:
        fastest, second = self.fastest_and_sendable(conn)
        if second is None:
            return None
        if second is fastest:
            return fastest
        # Fastest is full; ``second`` is the default scheduler's pick.
        if self._should_wait_for_fast(conn, fastest, second):
            return None
        return second

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def _should_wait_for_fast(
        self, conn: "MptcpConnection", fastest: "Subflow", second: "Subflow"
    ) -> bool:
        """One wait-or-send decision: gather inputs, evaluate, log.

        The split into :meth:`_decision_inputs` / :meth:`_evaluate` keeps
        the event-log record and the hysteresis state machine here, in
        one place, so variants overriding :meth:`_evaluate` (ablations,
        the deliberately broken fixtures in
        :mod:`repro.analysis.fixtures`) stay fully observable to the
        differential oracle.
        """
        waiting_before = self.waiting
        index = self.ecf_decisions
        self.ecf_decisions = index + 1
        inputs = self._decision_inputs(conn, fastest, second)
        wait = self._evaluate(inputs)
        forced = self.forced_decisions.get(index) if self.forced_decisions else None
        if forced is not None:
            wait = forced == "wait"
        if wait:
            self.waiting = True
        elif not (inputs.n_rounds * inputs.rtt_f < inputs.threshold):
            # Hysteresis clears only when inequality 1 itself fails; a
            # send forced by inequality 2 leaves the waiting state latched.
            self.waiting = False
        probe = _probe.ACTIVE
        if probe is not None:
            probe.ecf_decision(
                self, conn, fastest, second, inputs, wait, waiting_before, forced is not None
            )
        return wait

    def _decision_inputs(
        self, conn: "MptcpConnection", fastest: "Subflow", second: "Subflow"
    ) -> EcfInputs:
        """Snapshot the quantities both inequalities read.

        ``k/CWND`` counts *transmission rounds*, each costing one RTT, so
        it is taken as a whole number of rounds (ceil).  This matches the
        paper's prose -- waiting for the fast subflow costs "at least
        2RTT_f for transfer", i.e. one round of waiting plus >= 1 round of
        sending -- and is required for the Section 3.2 worked example
        (k = 1 leftover packet) to come out as "wait".
        """
        k_segments = conn.unassigned_bytes / conn.mss
        rtt_f = fastest.srtt_or_default()
        rtt_s = second.srtt_or_default()
        cwnd_f = max(fastest.cwnd, 1.0)
        cwnd_s = max(second.cwnd, 1.0)
        delta = max(fastest.rtt.sigma, second.rtt.sigma)
        n = 1.0 + math.ceil(k_segments / cwnd_f)
        threshold = (1.0 + (self.beta if self.waiting else 0.0)) * (rtt_s + delta)
        return EcfInputs(
            k_segments=k_segments,
            rtt_f=rtt_f,
            rtt_s=rtt_s,
            cwnd_f=cwnd_f,
            cwnd_s=cwnd_s,
            delta=delta,
            n_rounds=n,
            threshold=threshold,
        )

    def _evaluate(self, inputs: EcfInputs) -> bool:
        """Algorithm 1's two inequalities, stateless.  True means wait.

        Non-finite RTT estimates (a path in an outage reports an ``inf``
        transit estimate) are resolved before the inequalities: both
        would otherwise mix ``inf`` into comparisons where a ``0 * inf``
        can surface NaN and decide arbitrarily.  A dead fast path is not
        worth waiting for; a dead slow path is not worth sending on.
        """
        if not math.isfinite(inputs.rtt_f):
            return False
        if not math.isfinite(inputs.rtt_s):
            return True
        if inputs.n_rounds * inputs.rtt_f < inputs.threshold:
            if not self.use_second_inequality:
                return True
            return (
                math.ceil(inputs.k_segments / inputs.cwnd_s) * inputs.rtt_s
                >= 2.0 * inputs.rtt_f + inputs.delta
            )
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EcfScheduler(beta={self.beta}, waiting={self.waiting})"
