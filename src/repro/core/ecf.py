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
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.core.base import Scheduler
from repro.sim import probe as _probe
from repro.tcp.rtt import SIGMA_BOUND

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mptcp.connection import MptcpConnection
    from repro.tcp.subflow import Subflow

#: Paper's hysteresis constant ("set to 0.25 throughout our experiments").
DEFAULT_BETA = 0.25


class EcfInputs(NamedTuple):
    """Everything Algorithm 1 reads for one wait-or-send decision.

    Gathered by :meth:`EcfScheduler._decision_inputs` and passed to
    :meth:`EcfScheduler._evaluate`; also what gets logged with every
    decision so the reference oracle in :mod:`repro.analysis.reference`
    can replay it offline.  A named tuple: immutable, and built once per
    decision without a frozen dataclass's per-field ``__setattr__``.
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

    #: Algorithm 1 is this class's own (neither :meth:`_evaluate` nor
    #: :meth:`_decision_inputs` overridden), so :meth:`select` may decide
    #: on the bound for delta; set per subclass in ``__init_subclass__``.
    _stock_algorithm = True

    __slots__ = (
        "beta",
        "use_second_inequality",
        "waiting",
        "ecf_decisions",
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
        #: Monotone count of Algorithm 1 evaluations, on the bound path
        #: and the exact path alike: the tests hold the two paths to the
        #: same count.
        self.ecf_decisions = 0

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._stock_algorithm = (
            cls._evaluate is EcfScheduler._evaluate
            and cls._decision_inputs is EcfScheduler._decision_inputs
        )

    def select(self, conn: "MptcpConnection") -> Optional["Subflow"]:
        """The fast subflow when it has room; otherwise one wait-or-send
        decision (Algorithm 1): gather inputs, evaluate, log.

        The split into :meth:`_decision_inputs` / :meth:`_evaluate` keeps
        the event-log record and the hysteresis state machine here, in
        one place, so variants overriding :meth:`_evaluate` (ablations,
        the deliberately broken fixtures in
        :mod:`repro.analysis.fixtures`) stay fully observable to the
        differential oracle.

        With no probe armed and the stock Algorithm 1, the decision is
        first tried on ``delta`` in ``[0, delta_hi]``, ``delta_hi =
        SIGMA_BOUND * max`` over both sample windows (neither window's
        sigma exceeds it).  Float ``+`` and ``*`` round
        monotonically on non-negative operands, so a verdict that holds
        at both ends of that range is the exact verdict, with the same
        hysteresis update; only the close calls go on to the exact path
        above.  Comparisons are spelled so that a NaN falls through to it.
        """
        fastest, second = self.fastest_and_sendable(conn)
        if second is None:
            return None
        if second is fastest:
            return fastest
        # Fastest is full; ``second`` is the default scheduler's pick.
        if self._stock_algorithm and _probe.ACTIVE is None:
            # ``_decision_inputs`` on locals, less delta.
            k_segments = conn.unassigned_bytes / conn.config.mss
            fast_rtt = fastest.rtt
            slow_rtt = second.rtt
            rtt_f = fast_rtt.srtt
            if rtt_f is None:
                rtt_f = fastest._default_rtt
            rtt_s = slow_rtt.srtt
            if rtt_s is None:
                rtt_s = second._default_rtt
            cwnd_f = fastest.cwnd
            if cwnd_f < 1.0:
                cwnd_f = 1.0
            fast_window = fast_rtt._window
            slow_window = slow_rtt._window
            peak_f = max(fast_window) if fast_window else 0.0
            peak_s = max(slow_window) if slow_window else 0.0
            delta_hi = SIGMA_BOUND * (peak_s if peak_s > peak_f else peak_f)
            scale = 1.0 + (self.beta if self.waiting else 0.0)
            fast_time = (1.0 + math.ceil(k_segments / cwnd_f)) * rtt_f
            if fast_time >= scale * (rtt_s + delta_hi):
                # Inequality 1 fails for every delta: send, and clear
                # the hysteresis.
                self.ecf_decisions += 1
                self.waiting = False
                return second
            if fast_time < scale * rtt_s:
                # Inequality 1 holds for every delta; inequality 2 decides.
                cwnd_s = second.cwnd
                if cwnd_s < 1.0:
                    cwnd_s = 1.0
                slow_time = math.ceil(k_segments / cwnd_s) * rtt_s
                if not self.use_second_inequality or slow_time >= 2.0 * rtt_f + delta_hi:
                    self.ecf_decisions += 1
                    self.waiting = True
                    return None
                if slow_time < 2.0 * rtt_f:
                    # Inequality 2 fails for every delta: send, and the
                    # waiting state stays as it was.
                    self.ecf_decisions += 1
                    return second
        waiting_before = self.waiting
        self.ecf_decisions += 1
        inputs = self._decision_inputs(conn, fastest, second)
        wait = self._evaluate(inputs)
        if wait:
            self.waiting = True
        elif not (inputs.n_rounds * inputs.rtt_f < inputs.threshold):
            # Hysteresis clears only when inequality 1 itself fails; a
            # send forced by inequality 2 leaves the waiting state latched.
            self.waiting = False
        probe = _probe.ACTIVE
        if probe is not None:
            probe.ecf_decision(self, conn, fastest, second, inputs, wait, waiting_before)
        return None if wait else second

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
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

        Read on locals, once per decision: ``srtt_or_default()``,
        ``max(cwnd, 1.0)``, ``max(sigma_f, sigma_s)`` and ``conn.mss``
        stay the definitions, and
        ``TestRankingProperties.test_ecf_decision_inputs_match_the_definition``
        in ``tests/test_properties.py`` holds every field equal to them.
        """
        k_segments = conn.unassigned_bytes / conn.config.mss
        fast_rtt = fastest.rtt
        slow_rtt = second.rtt
        rtt_f = fast_rtt.srtt
        if rtt_f is None:
            rtt_f = fastest._default_rtt
        rtt_s = slow_rtt.srtt
        if rtt_s is None:
            rtt_s = second._default_rtt
        cwnd_f = fastest.cwnd
        if cwnd_f < 1.0:
            cwnd_f = 1.0
        cwnd_s = second.cwnd
        if cwnd_s < 1.0:
            cwnd_s = 1.0
        sigma_f = fast_rtt.sigma
        sigma_s = slow_rtt.sigma
        delta = sigma_s if sigma_s > sigma_f else sigma_f  # max(sigma_f, sigma_s)
        threshold = (1.0 + (self.beta if self.waiting else 0.0)) * (rtt_s + delta)
        n = 1.0 + math.ceil(k_segments / cwnd_f)
        return EcfInputs(k_segments, rtt_f, rtt_s, cwnd_f, cwnd_s, delta, n, threshold)

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
