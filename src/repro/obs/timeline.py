"""Timeline export: event logs + trace series -> Perfetto / JSONL / OpenMetrics.

The paper's evidence is temporal -- CWND and send-buffer timelines, idle
resets, ECF's wait intervals -- so the most useful view of a run is a
timeline you can scrub.  This module converts a structured event log
(:mod:`repro.analysis.events`) and recorded
:class:`~repro.sim.trace.TraceRecorder` series into the Chrome
trace-event JSON format that https://ui.perfetto.dev and
``chrome://tracing`` load directly:

* one track (thread) per subflow, scheduler, receiver, and connection,
  labelled via ``M`` metadata events;
* sends, ACKs, RTO firings, idle resets, deliveries, reinjections, and
  scheduler decisions as ``i`` instant events;
* loss-recovery episodes and ECF wait intervals as ``X`` duration
  events -- both the waits the scheduler *took* (``ecf wait``) and the
  waits Algorithm 1 *mandated* when replayed offline from each
  decision's logged inputs (``ecf wait (mandated)``), so a buggy
  scheduler that never waits still shows where it should have;
* CWND as ``C`` counter tracks, from both per-event snapshots and any
  recorded ``cwnd.*`` trace series.

Timestamps are simulated seconds converted to integer microseconds (the
trace-event unit).  Entry points: :func:`timeline_document` builds the
document, :func:`validate_trace_events` checks one structurally,
:func:`load_export_source` reads events/traces back out of a postmortem
bundle, an ``events.jsonl`` dump, or a cached/exported result JSON, and
:func:`prometheus_text` renders a run's perf record as the
``repro_perf_*`` families a ``campaign serve`` scrape shows.  The CLI
front end is
``python -m repro.cli trace export`` / ``trace validate``.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis import events as _events
from repro.analysis.reference import mandated_wait
from repro.obs.registry import (
    MetricRegistry,
    publish_perf_counters,
    render_openmetrics,
)

PathLike = Union[str, "os.PathLike[str]"]

#: Series samples as plain data: ``{name: [[t, value], ...]}``.
TraceData = Mapping[str, Sequence[Sequence[float]]]

_PID = 1


def _us(t: float) -> int:
    """Simulated seconds -> integer trace-event microseconds."""
    return int(round(t * 1e6))


def _finite(value: Any) -> Any:
    """JSON-safe arg value: non-finite floats become ``None``.

    Algorithm 1 legitimately logs ``inf`` thresholds (down subflows);
    Perfetto's JSON parser rejects bare ``Infinity``/``NaN`` tokens.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _args(event: _events.Event) -> Dict[str, Any]:
    data = event.to_dict()
    data.pop("kind", None)
    data.pop("t", None)
    return {key: _finite(value) for key, value in data.items()}


class _Tracks:
    """Allocates one tid per logical track and its ``M`` metadata."""

    def __init__(self) -> None:
        self._tids: Dict[Tuple[str, Any], int] = {}
        self.metadata: List[Dict[str, Any]] = []

    def tid(self, category: str, key: Any, label: str) -> int:
        ident = (category, key)
        tid = self._tids.get(ident)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[ident] = tid
            self.metadata.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": _PID,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
        return tid


def _wait_spans(
    decisions: Sequence[_events.EcfDecision],
    is_wait: Any,
    last_t: float,
) -> List[Tuple[float, float, _events.EcfDecision]]:
    """Maximal runs of consecutive wait decisions -> (start, end, first)."""
    spans: List[Tuple[float, float, _events.EcfDecision]] = []
    start: Optional[float] = None
    first: Optional[_events.EcfDecision] = None
    for event in decisions:
        if is_wait(event):
            if start is None:
                start = event.t
                first = event
        elif start is not None:
            assert first is not None
            spans.append((start, event.t, first))
            start = None
            first = None
    if start is not None:
        assert first is not None
        spans.append((start, max(last_t, start), first))
    return spans


def timeline_document(
    events: Iterable[_events.Event],
    traces: Optional[TraceData] = None,
    process_name: str = "repro simulation",
) -> Dict[str, Any]:
    """Build a Chrome trace-event / Perfetto JSON document.

    ``events`` is any iterable of typed records (a live
    :class:`~repro.analysis.events.EventLog` works); ``traces`` adds
    counter tracks from recorded series data.  The result is a plain
    dict ready for ``json.dump``.
    """
    records = list(events)
    tracks = _Tracks()
    out: List[Dict[str, Any]] = []
    last_t = records[-1].t if records else 0.0

    def instant(name: str, event: _events.Event, tid: int) -> None:
        out.append(
            {
                "ph": "i",
                "s": "t",
                "name": name,
                "ts": _us(event.t),
                "pid": _PID,
                "tid": tid,
                "args": _args(event),
            }
        )

    def span(name: str, start: float, end: float, tid: int, args: Dict[str, Any]) -> None:
        out.append(
            {
                "ph": "X",
                "name": name,
                "ts": _us(start),
                "dur": max(_us(end) - _us(start), 1),
                "pid": _PID,
                "tid": tid,
                "args": args,
            }
        )

    def counter(name: str, t: float, value: float) -> None:
        if not math.isfinite(value):
            return
        out.append(
            {
                "ph": "C",
                "name": name,
                "ts": _us(t),
                "pid": _PID,
                "tid": 0,
                "args": {"value": value},
            }
        )

    def subflow_tid(sf_uid: int, sf_id: int) -> int:
        return tracks.tid("subflow", sf_uid, f"subflow {sf_id} (uid {sf_uid})")

    # Open loss-recovery episodes per subflow uid: (start, cause, seq).
    open_recovery: Dict[int, Tuple[float, str, int]] = {}

    ecf_by_sched: Dict[int, List[_events.EcfDecision]] = {}

    for event in records:
        if isinstance(event, _events.SegmentSent):
            tid = subflow_tid(event.sf_uid, event.sf_id)
            instant("retransmit" if event.retransmitted else "send", event, tid)
            counter(f"cwnd sf{event.sf_id}", event.t, event.cwnd)
        elif isinstance(event, _events.AckProcessed):
            tid = subflow_tid(event.sf_uid, event.sf_id)
            instant("ack", event, tid)
            counter(f"cwnd sf{event.sf_id}", event.t, event.cwnd)
            episode = open_recovery.get(event.sf_uid)
            if episode is not None and not event.in_recovery:
                start, cause, seq = episode
                del open_recovery[event.sf_uid]
                span(
                    f"recovery ({cause})",
                    start,
                    event.t,
                    tid,
                    {"cause": cause, "seq": seq},
                )
        elif isinstance(event, _events.FastRetransmit):
            tid = subflow_tid(event.sf_uid, event.sf_id)
            instant("fast retransmit", event, tid)
            open_recovery.setdefault(event.sf_uid, (event.t, "fast rtx", event.seq))
        elif isinstance(event, _events.RtoFired):
            tid = subflow_tid(event.sf_uid, event.sf_id)
            instant("rto", event, tid)
            open_recovery.setdefault(event.sf_uid, (event.t, "rto", -1))
        elif isinstance(event, _events.IdleReset):
            tid = subflow_tid(event.sf_uid, event.sf_id)
            instant("idle reset", event, tid)
            counter(f"cwnd sf{event.sf_id}", event.t, event.new_cwnd)
        elif isinstance(event, _events.Delivered):
            tid = tracks.tid("receiver", event.recv_uid, f"receiver (uid {event.recv_uid})")
            instant("deliver", event, tid)
        elif isinstance(event, _events.Reinjection):
            tid = tracks.tid("meta", event.conn, f"connection {event.conn}")
            instant(f"reinjection ({event.cause})", event, tid)
        elif isinstance(event, _events.EcfDecision):
            tid = tracks.tid(
                "scheduler", event.sched_uid, f"ecf scheduler (uid {event.sched_uid})"
            )
            instant(f"ecf: {event.decision}", event, tid)
            ecf_by_sched.setdefault(event.sched_uid, []).append(event)
        elif isinstance(event, _events.Decision):
            tid = tracks.tid(
                "scheduler", event.sched_uid,
                f"{event.scheduler} scheduler (uid {event.sched_uid})",
            )
            instant(f"{event.scheduler} pick", event, tid)
        elif isinstance(event, _events.Dispatch):
            # One per engine event; far too chatty to chart individually.
            continue

    # Close any recovery episode still open when the log ends.
    for sf_uid, (start, cause, seq) in open_recovery.items():
        tid = tracks.tid("subflow", sf_uid, f"subflow ? (uid {sf_uid})")
        span(f"recovery ({cause})", start, max(last_t, start), tid, {"cause": cause, "seq": seq})

    # ECF wait intervals: spans the scheduler took, and spans Algorithm 1
    # mandated when replayed from each decision's own logged inputs.  A
    # seeded-violation scheduler (ecf-nowait) never records a "wait"
    # decision, but its mandated spans still show every missed interval.
    for sched_uid, decisions in ecf_by_sched.items():
        tid = tracks.tid(
            "scheduler", sched_uid, f"ecf scheduler (uid {sched_uid})"
        )
        actual = _wait_spans(decisions, lambda e: e.decision == "wait", last_t)
        for start, end, first in actual:
            span(
                "ecf wait",
                start,
                end,
                tid,
                {"fastest_sf": first.fastest_sf, "second_sf": first.second_sf},
            )
        mandated = _wait_spans(decisions, mandated_wait, last_t)
        for start, end, first in mandated:
            span(
                "ecf wait (mandated)",
                start,
                end,
                tid,
                {
                    "fastest_sf": first.fastest_sf,
                    "second_sf": first.second_sf,
                    "taken": first.decision,
                },
            )

    # Counter tracks from recorded trace series (cwnd.wifi, sndbuf.lte, ...).
    if traces:
        for name in sorted(traces):
            for sample in traces[name]:
                t, value = sample[0], sample[1]
                counter(name, t, value)

    process_meta = {
        "ph": "M",
        "name": "process_name",
        "pid": _PID,
        "tid": 0,
        "args": {"name": process_name},
    }
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [process_meta, *tracks.metadata, *out],
    }


# ----------------------------------------------------------------------
# Counterfactual twin spans
# ----------------------------------------------------------------------


def counterfactual_spans(
    report: Mapping[str, Any], tid: int = 1
) -> List[Dict[str, Any]]:
    """Twin-report regret records -> Perfetto ``X``/``C`` events.

    Each per-decision record from :func:`repro.experiments.twin.twin_report`
    becomes a duration span starting at the decision instant whose length
    is the completion-time regret of the *forced* (counterfactual) choice
    -- scrubbing the track shows exactly which wait/send decisions
    mattered -- plus a ``completion_delta`` counter track charting the
    regret magnitude over the run.
    """
    out: List[Dict[str, Any]] = []
    for record in report.get("regret", ()):
        delta = record["completion_delta"]
        # A 0-regret decision still gets a visible 1us sliver.
        duration = max(_us(abs(delta)), 1)
        out.append(
            {
                "ph": "X",
                "name": (
                    f"forced {record['forced']}: {delta:+.4f}s"
                ),
                "cat": "counterfactual",
                "ts": _us(record["t"]),
                "dur": duration,
                "pid": _PID,
                "tid": tid,
                "args": {key: _finite(value) for key, value in record.items()},
            }
        )
        out.append(
            {
                "ph": "C",
                "name": "completion_delta",
                "ts": _us(record["t"]),
                "pid": _PID,
                "tid": 0,
                "args": {"value": _finite(delta)},
            }
        )
    return out


def twin_timeline_document(report: Mapping[str, Any]) -> Dict[str, Any]:
    """Standalone Perfetto document for one twin report.

    The result loads in https://ui.perfetto.dev as-is: one
    ``counterfactual regret`` track of per-decision spans plus the
    regret counter, labelled with the baseline run's scheduler.
    """
    scheduler = report.get("spec", {}).get("scheduler", "?")
    tracks = _Tracks()
    tid = tracks.tid("counterfactual", scheduler, "counterfactual regret")
    process_meta = {
        "ph": "M",
        "name": "process_name",
        "pid": _PID,
        "tid": 0,
        "args": {"name": f"twin run ({scheduler})"},
    }
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            process_meta,
            *tracks.metadata,
            *counterfactual_spans(report, tid),
        ],
    }


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
_KNOWN_PHASES = frozenset({"i", "X", "C", "M", "B", "E", "b", "e", "n"})


def validate_trace_events(
    document: Any,
    min_subflow_tracks: int = 0,
    require_ecf_waits: bool = False,
) -> List[str]:
    """Structurally validate a trace-event document; returns problems.

    An empty list means the document is loadable by Perfetto /
    ``chrome://tracing``: a ``traceEvents`` array whose entries carry a
    known phase, numeric timestamps, pid/tid, and (for ``X``) a
    non-negative duration.  ``min_subflow_tracks`` additionally demands
    that many per-subflow tracks; ``require_ecf_waits`` demands at least
    one ``ecf wait*`` duration event.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, expected an object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]

    subflow_tracks = 0
    ecf_waits = 0
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing or non-string 'name'")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or not math.isfinite(ts):
                problems.append(f"{where}: missing or non-finite 'ts'")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: missing or non-integer {field!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or not math.isfinite(dur) or dur < 0:
                problems.append(f"{where}: 'X' event needs a non-negative 'dur'")
            if isinstance(event.get("name"), str) and event["name"].startswith("ecf wait"):
                ecf_waits += 1
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) and math.isfinite(v) for v in args.values()
            ):
                problems.append(f"{where}: 'C' event needs finite numeric args")
        if (
            phase == "M"
            and event.get("name") == "thread_name"
            and isinstance(event.get("args"), dict)
            and str(event["args"].get("name", "")).startswith("subflow ")
        ):
            subflow_tracks += 1

    if subflow_tracks < min_subflow_tracks:
        problems.append(
            f"expected >= {min_subflow_tracks} subflow tracks, found {subflow_tracks}"
        )
    if require_ecf_waits and ecf_waits == 0:
        problems.append("no 'ecf wait' duration events found")
    return problems


# ----------------------------------------------------------------------
# Flat exports
# ----------------------------------------------------------------------
def to_jsonl(events: Iterable[_events.Event]) -> str:
    """Event records as JSONL (one sorted-keys object per line)."""
    lines = [json.dumps(e.to_dict(), sort_keys=True) for e in events]
    return "\n".join(lines) + ("\n" if lines else "")


def prometheus_text(perf: Mapping[str, Any]) -> str:
    """A run's perf record as an OpenMetrics text exposition.

    ``perf`` is a bundle's ``perf.json`` (flat ``PerfSnapshot.to_dict()``)
    or the ``perf`` record on a result (``PerfRecord.to_dict()``); it
    goes through the daemon's own publisher into a fresh registry, so
    the sample names are the :data:`~repro.obs.registry.CATALOG`'s
    ``repro_perf_*`` and ``repro.cli metrics validate`` accepts the
    output.
    """
    registry = MetricRegistry()
    publish_perf_counters(registry, perf)
    return render_openmetrics(registry)


# ----------------------------------------------------------------------
# Loaders (bundle / JSONL / result JSON -> events + traces)
# ----------------------------------------------------------------------
def load_events_jsonl(path: PathLike) -> List[_events.Event]:
    """Rebuild typed events from an ``events.jsonl`` dump."""
    records: List[_events.Event] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        records.append(_events.event_from_dict(json.loads(line)))
    return records


def load_bundle(path: PathLike) -> Dict[str, Any]:
    """Load a postmortem bundle directory written by the flight recorder.

    Returns ``{"manifest": ..., "events": [Event, ...], "traces":
    {name: [[t, v], ...]}, "perf": {...}}`` (missing files read as
    empty).
    """
    bundle = Path(path)
    manifest = json.loads((bundle / "manifest.json").read_text())
    events_path = bundle / "events.jsonl"
    events = load_events_jsonl(events_path) if events_path.exists() else []
    traces_path = bundle / "traces.json"
    traces = json.loads(traces_path.read_text()) if traces_path.exists() else {}
    perf_path = bundle / "perf.json"
    perf = json.loads(perf_path.read_text()) if perf_path.exists() else {}
    return {"manifest": manifest, "events": events, "traces": traces, "perf": perf}


def _result_traces(payload: Dict[str, Any]) -> TraceData:
    trace = payload.get("trace")
    return trace if isinstance(trace, dict) else {}


def load_export_source(path: PathLike) -> Dict[str, Any]:
    """Load any exportable source into events + traces (+ perf).

    Understands, by shape:

    * a postmortem **bundle directory** (has ``manifest.json``);
    * an **events JSONL** file (``*.jsonl``);
    * a **cache entry** (``{"schema_version", "kind", "spec", "result"}``,
      the executor's on-disk format) -- trace series only;
    * a serialized **run result** dict -- trace series only.
    """
    source = Path(path)
    if source.is_dir():
        if not (source / "manifest.json").exists():
            raise ValueError(f"{source}: directory is not a postmortem bundle")
        return load_bundle(source)
    if source.suffix == ".jsonl":
        return {
            "manifest": None,
            "events": load_events_jsonl(source),
            "traces": {},
            "perf": {},
        }
    payload = json.loads(source.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{source}: unrecognized export source")
    if "result" in payload and isinstance(payload["result"], dict):
        # Executor cache entry: the result dict is nested under "result".
        inner = payload["result"]
        return {
            "manifest": None,
            "events": [],
            "traces": _result_traces(inner),
            "perf": payload.get("perf") or inner.get("perf") or {},
        }
    return {
        "manifest": None,
        "events": [],
        "traces": _result_traces(payload),
        "perf": payload.get("perf") or {},
    }


def write_timeline(
    document: Dict[str, Any], path: PathLike
) -> None:
    """Write a trace-event document (refusing non-finite floats)."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, allow_nan=False)
        handle.write("\n")
