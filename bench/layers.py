"""The per-layer ledger: one traced pass over a workload, measured from
outside the program.

Three sources, all public API (nothing is patched, no probe is added to
``src/repro``):

* **spans** -- :class:`Tracer` keeps, in memory, one record per call the
  workload makes into a layer (name, start, end, parent id, workload id).
  A span's self time is its duration minus its children's.
* **counts** -- ``repro.perf.counters.collecting()`` in the same pass as
  the spans and, in a third pass, the typed records of
  ``repro.analysis.events.recording()``.  Counts repeat exactly for a seed.
* **self-time inside ``Simulator.run``** -- ``repro.perf.profiler
  .profiling()`` in a second pass.

A layer the workload never enters reports 0.  The pool workers of
``campaign_cold`` are other processes: their simulator counts ride back
on ``JobOutcome.perf`` (``REPRO_PERF`` is set for that traced pass only),
their protocol events and profile are not visible from here.
"""

from __future__ import annotations

import gc
import os
import pickle
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.analysis import events as sim_events
from repro.net.packet import MSS
from repro.perf.counters import ENV_VAR as PERF_ENV_VAR
from repro.perf.counters import collecting
from repro.perf.profiler import profiling

from workloads import NULL_TRACER, POOL_JOBS


class Tracer:
    """In-memory span recorder; ``run.py`` writes the spans out at exit."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        #: ``(host time, JobOutcome)`` per finished campaign job, from the
        #: runner's public ``on_outcome`` hook.
        self.outcomes: List[Tuple[float, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def on_outcome(self, outcome: Any) -> None:
        self.outcomes.append((time.perf_counter(), outcome))

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name]

    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_s(self, name: str) -> float:
        """Duration of the spans called ``name`` minus their children's."""
        children: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        return sum(
            s["end"] - s["start"] - children.get(s["id"], 0.0) for s in self.named(name)
        )


@contextmanager
def _gc_watch() -> Iterator[Dict[str, float]]:
    """Host seconds spent inside the collector, and gen-0 collections."""
    seen = {"seconds": 0.0, "gen0": 0.0}
    started = [0.0]

    def callback(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            seen["seconds"] += time.perf_counter() - started[0]

    before = gc.get_stats()[0]["collections"]
    gc.callbacks.append(callback)
    try:
        yield seen
    finally:
        gc.callbacks.remove(callback)
        seen["gen0"] = gc.get_stats()[0]["collections"] - before


@contextmanager
def _perf_env(on: bool) -> Iterator[None]:
    """``REPRO_PERF`` for the workers of a traced campaign, then restored."""
    previous = os.environ.get(PERF_ENV_VAR)
    if on:
        os.environ[PERF_ENV_VAR] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(PERF_ENV_VAR, None)
        else:
            os.environ[PERF_ENV_VAR] = previous


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: List[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _counter_totals(snapshot: Dict[str, Any], outcomes: List[Tuple[float, Any]]) -> Dict[str, float]:
    """This process's collector plus every job's perf record."""
    totals = {k: v for k, v in snapshot.items() if k != "sim_time"}
    for _, outcome in outcomes:
        if outcome.perf is not None:
            for key in totals:
                totals[key] += outcome.perf["counters"].get(key, 0)
    return totals


def _cached_gaps_ms(tracer: Tracer) -> List[float]:
    """Inter-completion times of cache-hit jobs, within each drain."""
    gaps: List[float] = []
    for drain in tracer.named("service.runner.drain"):
        stamps = [
            t for t, o in tracer.outcomes
            if drain["start"] <= t <= drain["end"] and o.status == "cached"
        ]
        gaps += [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    return gaps


def _profile_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    """Shares of ``Simulator.run`` wall time and per-call cost, from the
    sim-profiler's report.  Nested hot spots are subtracted from the
    component that called them, so shares are self time."""
    wall = report["run_wall_s"]
    components = report["components"]
    hot: Dict[str, List[float]] = {}
    nested: Dict[str, float] = {}
    for path, cell in report["hot_spots"].items():
        frames = path.split(";")
        slot = hot.setdefault(frames[-1], [0, 0.0])
        slot[0] += cell["calls"]
        slot[1] += cell["wall_s"]
        if len(frames) == 3:
            nested[frames[1]] = nested.get(frames[1], 0.0) + cell["wall_s"]

    def component(name: str) -> Tuple[int, float]:
        cell = components.get(name, {"calls": 0, "wall_s": 0.0})
        return cell["calls"], max(0.0, cell["wall_s"] - nested.get(name, 0.0))

    events = sum(c["calls"] for n, c in components.items() if n != "engine.dispatch")
    dispatch_s = component("engine.dispatch")[1]
    link_calls, link_s = component("link.delivery")
    out = {
        "sim.engine.dispatch_share": _ratio(dispatch_s, wall),
        "sim.engine.dispatch_us": _ratio(dispatch_s * 1e6, events),
        "net.link.delivery_share": _ratio(link_s, wall),
        "net.link.delivery_us": _ratio(link_s * 1e6, link_calls),
        "tcp.subflow.share": _ratio(component("tcp.subflow")[1], wall),
        "mptcp.connection.share": _ratio(component("mptcp.connection")[1], wall),
        "apps.share": _ratio(component("app")[1], wall),
    }
    for metric, spot in (
        ("core.scheduler.decision", "scheduler.decision"),
        ("tcp.cc.update", "cc.update"),
        ("mptcp.receiver.reassembly", "receiver.reassembly"),
    ):
        calls, seconds = hot.get(spot, (0, 0.0))
        out[f"{metric}_share"] = _ratio(seconds, wall)
        out[f"{metric}_us"] = _ratio(seconds * 1e6, calls)
    return out


_PROFILE_ZERO = _profile_metrics({"run_wall_s": 0.0, "components": {}, "hot_spots": {}})


def _event_metrics(log: Optional[Any]) -> Dict[str, float]:
    """Recovery-path counts from the typed event log."""
    records = list(log) if log is not None else []

    def count(kind: type) -> int:
        return sum(1 for e in records if type(e) is kind)

    return {
        "tcp.subflow.segments_retransmitted": sum(
            1 for e in records if type(e) is sim_events.SegmentSent and e.retransmitted
        ),
        "tcp.subflow.rto_events": count(sim_events.RtoFired),
        "tcp.subflow.fast_retransmits": count(sim_events.FastRetransmit),
        "tcp.subflow.idle_resets": count(sim_events.IdleReset),
        "mptcp.connection.reinjections": count(sim_events.Reinjection),
        "mptcp.receiver.ooo_delay_max_s": max(
            (e.delay for e in records if type(e) is sim_events.Delivered), default=0.0
        ),
    }


def traced_pass(workload: Any, state: Any, timed_median_s: float) -> Tuple[Dict[str, float], Tracer]:
    """Run ``workload`` under tracing; returns its per-layer metrics and
    the tracer holding the spans."""
    tracer = Tracer(workload.name)
    gc.collect()
    children_before = os.times()
    with _perf_env(not workload.in_process), collecting() as collector, _gc_watch() as gc_seen:
        with tracer.span(workload.name):
            raw = workload.run(state, tracer)
    children_after = os.times()
    wall = tracer.total_s(workload.name)
    outcome = workload.check(state, raw)

    counters = _counter_totals(collector.snapshot().to_dict(), tracer.outcomes)
    # Worlds rebuilt by snapshot.restore are not adopted by the collector:
    # the counts below cover fork_sweep's checkpointed run, not its forks.
    fork_events = getattr(raw, "fork_events", 0)
    events = counters["events_dispatched"]
    segments = (outcome.payload_bytes - getattr(raw, "fork_payload_bytes", 0)) / MSS
    decisions = counters["scheduler_decisions"]
    metrics: Dict[str, float] = {
        "sim.engine.events": events,
        "sim.engine.timers_scheduled": counters["timers_scheduled"],
        "sim.engine.timers_cancelled": counters["timers_cancelled"],
        "sim.engine.stale_pops": counters["stale_pops"],
        "sim.engine.heap_compactions": counters["heap_compactions"],
        "sim.engine.events_per_segment": _ratio(events, segments),
        "net.link.packets_in": counters["packets_in"],
        "net.link.packets_delivered": counters["packets_delivered"],
        "net.link.packets_dropped": counters["packets_dropped"],
        "net.link.bytes_delivered": counters["bytes_delivered"],
        "core.scheduler.decisions": decisions,
        "core.scheduler.waits": counters["scheduler_waits"],
        "core.scheduler.assign_ratio": _ratio(
            decisions - counters["scheduler_waits"], decisions
        ),
        "core.scheduler.decisions_per_segment": _ratio(decisions, segments),
        "sim.gc.gen0_per_kevent": _ratio(gc_seen["gen0"] * 1e3, events + fork_events),
        "sim.gc.time_share": _ratio(gc_seen["seconds"], wall),
        "trace.overhead_ratio": _ratio(wall, timed_median_s),
    }

    # Campaign service, seen through the spans around submit/drain/fetch.
    campaigns = len(tracer.named("service.runner.drain"))
    drain_s = tracer.total_s("service.runner.drain")
    worker_cpu = round(
        children_after.children_user + children_after.children_system
        - children_before.children_user - children_before.children_system,
        6,
    )
    gaps = _cached_gaps_ms(tracer)
    metrics.update({
        "service.runner.submit_s": _ratio(tracer.total_s("service.runner.submit"), campaigns),
        "service.runner.drain_s": _ratio(drain_s, campaigns),
        "service.runner.fetch_s": _ratio(tracer.total_s("service.runner.fetch"), campaigns),
        # Worker CPU seconds over the pool's capacity while draining.
        # (Not the sum of JobOutcome.wall_s: on the pool that figure
        # spans submit to completion, queue wait included.)
        "service.backends.pool_efficiency": _ratio(worker_cpu, drain_s * POOL_JOBS),
        "service.runner.cached_job_ms_p50": _percentile(gaps, 0.50),
        "service.runner.cached_job_ms_p95": _percentile(gaps, 0.95),
    })

    # Snapshot layer, seen through the spans around capture/restore.
    snapshots = getattr(raw, "snapshots", [])
    captures = tracer.named("sim.snapshot.capture")
    restores = tracer.named("sim.snapshot.restore")
    capture_ms = _ratio(tracer.total_s("sim.snapshot.capture") * 1e3, len(captures))
    restore_ms = _ratio(tracer.total_s("sim.snapshot.restore") * 1e3, len(restores))
    events_per_s = _ratio(
        getattr(raw, "prefix_events", 0) + fork_events, tracer.total_s("sim.engine.run")
    )
    metrics.update({
        "sim.snapshot.capture_ms": capture_ms,
        "sim.snapshot.restore_ms": restore_ms,
        "sim.snapshot.nodes": statistics.median(
            [len(s.nodes) for s in snapshots] or [0]
        ),
        "sim.snapshot.pickle_bytes": statistics.median(
            [len(pickle.dumps(s.nodes)) for s in snapshots] or [0]
        ),
        "sim.snapshot.fork_events": fork_events,
        # A shared prefix shorter than this many events loses to
        # re-simulating it.
        "sim.snapshot.breakeven_events": (capture_ms + restore_ms) / 1e3 * events_per_s,
        "sim.snapshot.self_share": _ratio(
            tracer.self_s("sim.snapshot.capture") + tracer.self_s("sim.snapshot.restore"),
            wall,
        ),
    })

    if workload.in_process:
        gc.collect()
        with profiling() as profiler:
            workload.run(state, NULL_TRACER)
        metrics.update(_profile_metrics(profiler.report()))
        gc.collect()
        with sim_events.recording() as log:
            workload.run(state, NULL_TRACER)
        metrics.update(_event_metrics(log))
    else:
        metrics.update(_PROFILE_ZERO)
        metrics.update(_event_metrics(None))
    return metrics, tracer


def separation_problems(per_workload: Dict[str, Dict[str, float]]) -> List[str]:
    """Why the workloads no longer separate the layers (empty = they do).

    Only the rules whose workloads were traced are evaluated, so a
    single-workload run checks what it can see.
    """
    problems: List[str] = []
    eight = per_workload.get("eight_subflow_ecf")
    single = per_workload.get("bulk_single_path")
    share = "core.scheduler.decision_share"
    if eight is not None and single is not None and eight[share] < 2.0 * single[share]:
        problems.append(
            f"{share} on eight_subflow_ecf ({eight[share]:.3f}) is below twice "
            f"that on bulk_single_path ({single[share]:.3f})"
        )
    warm = per_workload.get("campaign_warm")
    if warm is not None and warm["sim.engine.events"] != 0:
        problems.append(
            f"campaign_warm dispatched {warm['sim.engine.events']:.0f} simulator "
            "events; every job must be a cache hit"
        )
    fork = per_workload.get("fork_sweep")
    if fork is not None and fork["sim.snapshot.self_share"] < 0.40:
        problems.append(
            f"snapshot self-time is {fork['sim.snapshot.self_share']:.2f} of "
            "fork_sweep, below 0.40"
        )
    return problems

