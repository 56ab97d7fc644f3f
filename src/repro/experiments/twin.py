"""Counterfactual twin runs: per-decision regret for ECF's Algorithm 1.

The fg-inet MPTCP kernel prototyped a dual real/predict execution mode
(``pRun``/``NOPREDICT``); this module replays that idea in simulation
using :mod:`repro.sim.snapshot`.  A *recording pass* runs a bulk download
to completion, logging every :class:`~repro.analysis.events.EcfDecision`
and taking periodic event-boundary checkpoints.  Then, for each logged
decision, the world is restored from the latest checkpoint preceding it
and re-run with the **opposite** wait/send choice forced
(:meth:`~repro.core.ecf.EcfScheduler.force_decision`); replay determinism
makes the two futures identical up to that single flipped decision.

The per-decision *regret* record quantifies the paper's Section 3.2
tradeoff directly: when ECF chose ``wait``, the forced ``slow`` branch is
exactly what minRTT would have done at that instant, so
``completion_delta > 0`` means ECF's wait beat minRTT's send-on-slow by
that many seconds (and vice versa for forced waits).

Because the same machinery replays the *unchanged* decision too, it
doubles as a self-check: :func:`verify_fork_equivalence` asserts that a
fork forcing the recorded choice finishes byte-identical to the straight
run -- the fork-equivalence acceptance gate wired into CI.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.apps.bulk import (  # noqa: F401 -- build_world/finish are this module's API too
    BulkDownloadResult,
    BulkDownloadSpec,
    build_world,
    finish,
)
from repro.core.ecf import EcfScheduler
from repro.experiments.spec import canonical_json
from repro.sim.snapshot import Snapshot, capture, fork

if TYPE_CHECKING:
    from repro.analysis.events import EcfDecision

#: Events per checkpoint in the recording pass.  Small enough that a
#: forked future replays only a short shared prefix, large enough that
#: checkpointing stays a fraction of the run.
DEFAULT_CHECKPOINT_EVERY = 2_000


def result_digest(result: BulkDownloadResult) -> str:
    """The golden-digest fingerprint (same scheme as the perf suite)."""
    return hashlib.sha256(canonical_json(result.to_dict()).encode()).hexdigest()


# ----------------------------------------------------------------------
# Recording pass
# ----------------------------------------------------------------------


@dataclass
class Recording:
    """Straight-line run plus everything needed to fork any decision."""

    spec: BulkDownloadSpec
    result: BulkDownloadResult
    digest: str
    decisions: List[EcfDecision]
    #: ``(ecf_decisions count at capture, snapshot)`` in capture order;
    #: the first entry is the t=0 world.
    checkpoints: List[Tuple[int, Snapshot]] = field(repr=False, default_factory=list)

    def checkpoint_before(self, index: int) -> Snapshot:
        """Latest checkpoint taken before decision ``index`` happened."""
        best = self.checkpoints[0][1]
        for count, snap in self.checkpoints:
            if count <= index:
                best = snap
            else:
                break
        return best


def record(
    spec: BulkDownloadSpec, checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
) -> Recording:
    """Run ``spec`` to completion, logging decisions and checkpointing."""
    from repro.analysis import events

    world = build_world(spec)
    scheduler = world.conn.scheduler
    checkpoints = [(0, capture(world.sim, world.roots()))]
    with events.recording() as log:
        while True:
            executed = world.sim.run(until=spec.timeout, max_events=checkpoint_every)
            count = getattr(scheduler, "ecf_decisions", 0)
            checkpoints.append((count, capture(world.sim, world.roots())))
            if executed < checkpoint_every:
                break
        decisions = log.of_kind(events.EcfDecision)
    result = finish(spec, world.conn, world.recorder)
    return Recording(
        spec=spec,
        result=result,
        digest=result_digest(result),
        decisions=decisions,
        checkpoints=checkpoints,
    )


def _replay_forced(
    recording: Recording, index: int, choice: str
) -> BulkDownloadResult:
    """Restore the pre-decision world, force ``choice``, run it out."""
    spec = recording.spec

    def override(world: Dict[str, Any]) -> None:
        scheduler = world["conn"].scheduler
        if not isinstance(scheduler, EcfScheduler):
            raise TypeError(
                f"twin forks need an EcfScheduler, got {type(scheduler).__name__}"
            )
        scheduler.force_decision(index, choice)

    world = fork(recording.checkpoint_before(index), override)
    world["sim"].run(until=spec.timeout)
    return finish(spec, world["conn"], world["recorder"])


# ----------------------------------------------------------------------
# The twin report
# ----------------------------------------------------------------------


def twin_report(
    spec: BulkDownloadSpec,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    max_decisions: Optional[int] = None,
) -> Dict[str, Any]:
    """Per-decision ECF-vs-minRTT regret over one bulk download.

    For every logged ECF decision (up to ``max_decisions``), forks the
    recorded world, forces the opposite choice, runs the counterfactual
    future to completion, and reports the completion-time and max
    out-of-order-delay deltas (``counterfactual - actual``; positive
    means the scheduler's actual choice was the better one).
    """
    recording = record(spec, checkpoint_every=checkpoint_every)
    picked = recording.decisions
    truncated = 0
    if max_decisions is not None and len(picked) > max_decisions:
        truncated = len(picked) - max_decisions
        picked = picked[:max_decisions]
    records: List[Dict[str, Any]] = []
    for index, decision in enumerate(picked):
        opposite = "slow" if decision.decision == "wait" else "wait"
        counterfactual = _replay_forced(recording, index, opposite)
        records.append({
            "index": index,
            "t": decision.t,
            "decision": decision.decision,
            "forced": opposite,
            "k_segments": decision.k_segments,
            "rtt_f": decision.rtt_f,
            "rtt_s": decision.rtt_s,
            "completion_time": counterfactual.completion_time,
            "completion_delta": (
                counterfactual.completion_time - recording.result.completion_time
            ),
            "ooo_delays_max": counterfactual.ooo_delays_max,
            "ooo_delta": (
                counterfactual.ooo_delays_max - recording.result.ooo_delays_max
            ),
        })
    return {
        "kind": "twin_report",
        "spec": spec.to_dict(),
        "baseline": recording.result.to_dict(),
        "baseline_digest": recording.digest,
        "decisions_total": len(recording.decisions),
        "decisions_replayed": len(records),
        "decisions_truncated": truncated,
        "regret": records,
    }


def verify_fork_equivalence(
    spec: BulkDownloadSpec, checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
) -> Dict[str, Any]:
    """Prove fork + unchanged decision replays byte-identical.

    Replays the *recorded* choice of the first logged decision from the
    nearest checkpoint (and, when no decision was logged, just restores
    the t=0 checkpoint) and compares result digests with the straight
    run.  Returns a report dict; ``ok`` is the gate.
    """
    recording = record(spec, checkpoint_every=checkpoint_every)
    if recording.decisions:
        replayed = _replay_forced(recording, 0, recording.decisions[0].decision)
    else:
        world = fork(recording.checkpoints[0][1])
        world["sim"].run(until=spec.timeout)
        replayed = finish(spec, world["conn"], world["recorder"])
    replay_digest = result_digest(replayed)
    return {
        "kind": "fork_equivalence",
        "spec": spec.to_dict(),
        "decisions_total": len(recording.decisions),
        "baseline_digest": recording.digest,
        "replay_digest": replay_digest,
        "ok": replay_digest == recording.digest,
    }
