"""Temporal property checker: past-time predicates over the event log.

Where the runtime sanitizer (:mod:`repro.analysis.sanitize`) asserts
*instantaneous* state invariants as the simulation runs, this module
checks *temporal* properties -- claims about event orderings and
histories -- after the fact, over the structured log collected by
:mod:`repro.analysis.events`.  The built-in :data:`CATALOG` encodes the
paper's headline semantics (ECF's Algorithm 1 inequalities and
hysteresis, the idle-restart pathology of Section 3.2) plus core TCP/
MPTCP rules (recovery freezes the window, RTO backoff doubles, DSNs
deliver in order), and wires in the differential oracles from
:mod:`repro.analysis.reference`.

Each property is a pure function ``EventLog -> [Violation]``; adding one
means appending a :class:`Property` to :data:`CATALOG` (see
``docs/architecture.md``, "Checking layer").  Use :func:`check_log` on a
log you already have, or :func:`run_with_checks` to record-and-check any
executor spec in one call (the ``--check`` flag and the ``REPRO_CHECK``
environment variable route through the latter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import events as _events
from repro.analysis import fixtures as _fixtures  # noqa: F401 -- registers its schedulers
from repro.analysis.events import (
    AckProcessed,
    Decision,
    Delivered,
    EcfDecision,
    EventLog,
    IdleReset,
    RtoFired,
)
from repro.analysis.reference import mandated_wait, replay_ecf, replay_minrtt
from repro.sim.probe import env_on

#: Switching this environment variable on (:func:`repro.sim.probe.env_on`)
#: makes the executor wrap every run in record-and-check (pool workers
#: inherit it).
ENV_VAR = "REPRO_CHECK"

#: Relative tolerance for re-deriving float quantities the implementation
#: logged (thresholds).  Generous: these are recomputed from the same
#: inputs, so anything beyond accumulated rounding is a real divergence.
_REL_TOL = 1e-9

#: Cap on subflow RTO backoff (mirrors ``repro.tcp.subflow.MAX_BACKOFF``;
#: restated here because the checker must not import its subject).
_MAX_BACKOFF = 64.0


def check_enabled() -> bool:
    """True when the ``REPRO_CHECK`` environment variable is on."""
    return env_on(ENV_VAR)


class CheckError(AssertionError):
    """Raised by :func:`run_with_checks` when any property is violated."""


@dataclass(frozen=True)
class Violation:
    """One property violation, anchored at the offending event's time."""

    prop: str
    t: float
    message: str

    def __str__(self) -> str:  # pragma: no cover - message formatting
        return f"[{self.prop}] t={self.t:.6f}: {self.message}"


@dataclass(frozen=True)
class Property:
    """A named past-time predicate over a completed event log."""

    name: str
    description: str
    check: Callable[[EventLog], List[Violation]]


@dataclass
class CheckReport:
    """Outcome of running a property catalog over one log."""

    properties_checked: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    events_seen: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self, limit: int = 20) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"checked {len(self.properties_checked)} properties over "
            f"{self.events_seen} events: "
            + ("OK" if self.ok else f"{len(self.violations)} violation(s)")
        ]
        for violation in self.violations[:limit]:
            lines.append(f"  {violation}")
        if len(self.violations) > limit:
            lines.append(f"  ... and {len(self.violations) - limit} more")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Built-in properties
# ----------------------------------------------------------------------
def _ecf_wait_inequalities(log: EventLog) -> List[Violation]:
    """ECF never sends on the slow subflow while Algorithm 1 said wait.

    For every logged ``"slow"`` decision, re-derive both inequalities
    from the decision's own inputs (:func:`mandated_wait`); if inequality
    1 held -- and inequality 2 too, when enabled -- Algorithm 1 mandated
    waiting, so transmitting on the slow subflow violates the paper.
    """
    out: List[Violation] = []
    for dec in log.of_kind(EcfDecision):
        if dec.decision != "slow" or not mandated_wait(dec):
            continue
        out.append(Violation(
            prop="ecf-wait-respects-inequality-1",
            t=dec.t,
            message=(
                f"sent on slow subflow {dec.second_sf} while Algorithm 1 held "
                f"(n*RTT_f={dec.n_rounds * dec.rtt_f:.6f} < "
                f"threshold={dec.threshold:.6f})"
            ),
        ))
    return out


def _ecf_beta_hysteresis(log: EventLog) -> List[Violation]:
    """``beta`` inflates the waiting threshold iff ``waiting`` was set.

    The logged threshold must equal ``(1 + waiting_before*beta) *
    (RTT_s + delta)`` -- applying hysteresis without the flag (or
    dropping it with the flag) silently changes when ECF stops waiting.
    """
    out: List[Violation] = []
    for dec in log.of_kind(EcfDecision):
        factor = 1.0 + (dec.beta if dec.waiting_before else 0.0)
        expected = factor * (dec.rtt_s + dec.delta)
        if not math.isclose(dec.threshold, expected, rel_tol=_REL_TOL, abs_tol=0.0):
            out.append(Violation(
                prop="ecf-beta-only-when-waiting",
                t=dec.t,
                message=(
                    f"threshold {dec.threshold:.9f} != expected {expected:.9f} "
                    f"(waiting_before={dec.waiting_before}, beta={dec.beta})"
                ),
            ))
    return out


def _no_cwnd_growth_in_recovery(log: EventLog) -> List[Violation]:
    """The congestion window never grows while a subflow is in recovery.

    Sound on adjacent ACK records: every ACK emits one record, and
    recovery exit happens *during* ACK processing, so two consecutive
    in-recovery records bracket a window in which only decreasing
    mutations (penalization, RTO collapse, idle restart) are legal.
    """
    out: List[Violation] = []
    last: Dict[int, AckProcessed] = {}
    for ack in log.of_kind(AckProcessed):
        prev = last.get(ack.sf_uid)
        last[ack.sf_uid] = ack
        if prev is None or not (prev.in_recovery and ack.in_recovery):
            continue
        if ack.cwnd > prev.cwnd + 1e-12:
            out.append(Violation(
                prop="no-cwnd-growth-in-recovery",
                t=ack.t,
                message=(
                    f"subflow {ack.sf_id}: cwnd grew {prev.cwnd:.3f} -> "
                    f"{ack.cwnd:.3f} between ACKs inside one recovery episode"
                ),
            ))
    return out


def _rto_backoff_doubles(log: EventLog) -> List[Violation]:
    """Every fired RTO doubles the backoff multiplier (capped at 64x)."""
    out: List[Violation] = []
    for rto in log.of_kind(RtoFired):
        expected = min(_MAX_BACKOFF, rto.backoff_before * 2.0)
        if not math.isclose(rto.backoff_after, expected, rel_tol=_REL_TOL):
            out.append(Violation(
                prop="rto-backoff-doubles",
                t=rto.t,
                message=(
                    f"subflow {rto.sf_id}: backoff {rto.backoff_before} -> "
                    f"{rto.backoff_after}, expected {expected}"
                ),
            ))
    return out


def _dsn_in_order(log: EventLog) -> List[Violation]:
    """The receiver delivers the DSN stream gaplessly from zero."""
    out: List[Violation] = []
    frontier: Dict[int, int] = {}
    for ev in log.of_kind(Delivered):
        expected = frontier.get(ev.recv_uid, 0)
        if ev.dsn != expected:
            out.append(Violation(
                prop="dsn-in-order-delivery",
                t=ev.t,
                message=(
                    f"receiver {ev.recv_uid} delivered dsn={ev.dsn}, "
                    f"expected {expected}"
                ),
            ))
        frontier[ev.recv_uid] = ev.dsn + ev.payload
    return out


def _idle_reset_not_during_wait(log: EventLog) -> List[Violation]:
    """An ECF wait never leads to the fast subflow's idle-restart reset.

    Section 3.2's pathology inverted: ECF waits *because* the fast
    subflow has data in flight, so its idle clock cannot run out while
    connection-level data is pending on it.  An :class:`IdleReset` on a
    subflow that some scheduler was waiting for *during the idle period*
    means the wait starved the very subflow it was protecting.
    """
    waits: List[EcfDecision] = [
        d for d in log.of_kind(EcfDecision) if d.decision == "wait"
    ]
    out: List[Violation] = []
    for reset in log.of_kind(IdleReset):
        idle_start = reset.t - reset.idle
        for dec in waits:
            if dec.fastest_uid == reset.sf_uid and idle_start < dec.t <= reset.t:
                out.append(Violation(
                    prop="idle-reset-not-during-wait",
                    t=reset.t,
                    message=(
                        f"subflow {reset.sf_id} idle-reset after {reset.idle:.3f}s "
                        f"idle, yet ECF decided to wait for it at t={dec.t:.6f} "
                        "inside that idle period"
                    ),
                ))
                break
    return out


def _replayed(
    prop: str, replay: Callable[[List[Any]], List[Any]], decisions: List[Any]
) -> List[Violation]:
    """Run a reference ``replay`` over each scheduler instance's decisions."""
    by_sched: Dict[int, List[Any]] = {}
    for dec in decisions:
        by_sched.setdefault(dec.sched_uid, []).append(dec)
    return [
        Violation(prop=prop, t=div.t, message=f"scheduler uid={uid}: {div}")
        for uid, group in sorted(by_sched.items())
        for div in replay(group)
    ]


def _ecf_reference(log: EventLog) -> List[Violation]:
    """Differential oracle: replay every ECF decision through the paper model."""
    return _replayed("ecf-reference-model", replay_ecf, log.of_kind(EcfDecision))


def _minrtt_reference(log: EventLog) -> List[Violation]:
    """Differential oracle: every minRTT pick is the smallest-SRTT subflow."""
    picks = [dec for dec in log.of_kind(Decision) if dec.scheduler == "minrtt"]
    return _replayed("minrtt-reference-model", replay_minrtt, picks)


CATALOG: Tuple[Property, ...] = (
    Property(
        name="ecf-wait-respects-inequality-1",
        description="ECF never transmits on a slow subflow while Algorithm 1 "
        "mandated waiting for the fast one",
        check=_ecf_wait_inequalities,
    ),
    Property(
        name="ecf-beta-only-when-waiting",
        description="hysteresis beta inflates the waiting threshold iff the "
        "waiting flag was already set",
        check=_ecf_beta_hysteresis,
    ),
    Property(
        name="no-cwnd-growth-in-recovery",
        description="cwnd never grows between ACKs inside one recovery episode",
        check=_no_cwnd_growth_in_recovery,
    ),
    Property(
        name="rto-backoff-doubles",
        description="each fired RTO doubles the backoff multiplier, capped at 64x",
        check=_rto_backoff_doubles,
    ),
    Property(
        name="dsn-in-order-delivery",
        description="the receiver delivers the DSN stream gaplessly from zero",
        check=_dsn_in_order,
    ),
    Property(
        name="idle-reset-not-during-wait",
        description="the fast subflow's idle-restart never fires during a period "
        "ECF spent waiting for it",
        check=_idle_reset_not_during_wait,
    ),
    Property(
        name="ecf-reference-model",
        description="every ECF decision matches the paper's Algorithm 1 replayed "
        "on the logged inputs",
        check=_ecf_reference,
    ),
    Property(
        name="minrtt-reference-model",
        description="every minRTT pick is the smallest-SRTT window-open subflow",
        check=_minrtt_reference,
    ),
)


def check_log(
    log: EventLog,
    properties: Optional[Sequence[Property]] = None,
    allow_partial: bool = False,
) -> CheckReport:
    """Run a property catalog (default: all of :data:`CATALOG`) over a log.

    Refuses capped logs that actually dropped events unless
    ``allow_partial`` -- chain properties (backoff doubling, DSN
    frontiers) read history, and a truncated history can both mask real
    violations and fabricate false ones.
    """
    if log.dropped > 0 and not allow_partial:
        raise ValueError(
            f"event log dropped {log.dropped} record(s); temporal properties "
            "need full history (pass allow_partial=True to override)"
        )
    report = CheckReport(events_seen=len(log))
    for prop in properties if properties is not None else CATALOG:
        report.properties_checked.append(prop.name)
        report.violations.extend(prop.check(log))
    report.violations.sort(key=lambda v: (v.t, v.prop))
    return report


def run_with_checks(
    run: Callable[[Any], Any],
    spec: Any,
    properties: Optional[Sequence[Property]] = None,
) -> Tuple[Any, CheckReport]:
    """Execute ``run(spec)`` under a fresh event log and check the catalog.

    Returns ``(result, report)``; raises :class:`CheckError` when any
    property is violated, carrying the formatted report, so callers that
    only want the pass/fail signal (the executor's ``--check`` path) can
    simply propagate the exception.

    Any exception leaving this function -- the :class:`CheckError`, a
    sanitizer assertion, or a crash inside the run -- gets the recorded
    log attached as an ``event_log`` attribute, so the flight recorder's
    postmortem writer (:mod:`repro.obs.flight`) can snapshot the full
    failure context even though this recording shadowed its ring buffer.
    """
    with _events.recording() as log:
        try:
            result = run(spec)
        except BaseException as exc:
            exc.event_log = log  # type: ignore[attr-defined]
            raise
    report = check_log(log, properties=properties)
    if not report.ok:
        error = CheckError(report.format())
        error.event_log = log  # type: ignore[attr-defined]
        raise error
    return result, report
