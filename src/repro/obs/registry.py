"""Typed metric registry: one telemetry plane over runs and campaigns.

Before this module the repo's telemetry was four disjoint surfaces --
:mod:`repro.perf` counter snapshots, :class:`~repro.obs.journal.RunJournal`
outcome records, :class:`~repro.service.store.CampaignStore` state-machine
transitions, and executor progress events -- each with its own ad-hoc
shape.  The registry unifies them: every source publishes into labelled
**counters**, **gauges**, and **histograms** with a stable catalog
(:data:`CATALOG`), and one formatter renders the whole registry as
OpenMetrics text (proper ``# HELP`` / ``# TYPE`` / ``# UNIT`` metadata,
the ``_total`` sample-suffix convention for counters, escaped label
values, a terminating ``# EOF``).  The campaign daemon
(:mod:`repro.service.daemon`) serves exactly this text on ``/metrics``;
``python -m repro.cli trace export --format prom`` renders run-level
perf counters through the same formatter, so run-level and
campaign-level exports cannot drift apart.

Metrics come in two time flavors, and the catalog keeps them apart the
same way :class:`~repro.perf.counters.PerfRecord` does: **sim-time**
quantities (``repro_perf_sim_seconds_total``, event/packet/decision
counts) are deterministic functions of the simulated runs, while
**wall-time** quantities (``repro_perf_wall_seconds_total``, the
profiler histograms, scrape counters) describe the host.  Dashboards
that divide one by the other get events/s; nothing in the registry ever
mixes the two in a single series.

The module is dependency-free within the package (stdlib only): the
profiler, the daemon, and the timeline exporter all import it, so it
cannot import any of them back.

Example
-------
>>> reg = MetricRegistry()
>>> jobs = reg.counter("jobs", "Jobs seen.", labels=("status",))
>>> jobs.inc(status="done")
>>> jobs.inc(2, status="failed")
>>> print(render_openmetrics(reg), end="")
# TYPE jobs counter
# HELP jobs Jobs seen.
jobs_total{status="done"} 1
jobs_total{status="failed"} 2
# EOF
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

#: HTTP Content-Type for an OpenMetrics scrape body.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets: log-spaced seconds from 1us to 1s.  Sized
#: for per-event and per-call wall times, which is what the sim-profiler
#: feeds them.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
)


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - guarded by callers
        value = float(value)
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_key(
    label_names: Tuple[str, ...], labels: Mapping[str, Any]
) -> Tuple[str, ...]:
    extra = set(labels) - set(label_names)
    if extra:
        raise ValueError(f"undeclared label(s) {sorted(extra)}; declared: {label_names}")
    return tuple(str(labels.get(name, "")) for name in label_names)


def _render_labels(
    label_names: Tuple[str, ...],
    values: Tuple[str, ...],
    extra: Optional[Tuple[str, str]] = None,
) -> str:
    pairs = [
        (name, value) for name, value in zip(label_names, values) if value != ""
    ]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in pairs)
    return "{" + body + "}"


class _Metric:
    """Shared shape: a named family with fixed label names."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labels: Sequence[str] = (), unit: str = ""
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {name!r}")
        self.name = name
        self.help = help
        self.unit = unit
        self.label_names: Tuple[str, ...] = tuple(labels)

    # Subclasses provide: samples() -> List[str], sample_dicts() -> list.


class Counter(_Metric):
    """Monotonically increasing total; rendered with the ``_total`` suffix."""

    kind = "counter"

    def __init__(
        self, name: str, help: str, labels: Sequence[str] = (), unit: str = ""
    ) -> None:
        super().__init__(name, help, labels, unit)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount!r})")
        key = _label_key(self.label_names, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(self.label_names, labels), 0.0)

    def samples(self) -> List[str]:
        return [
            f"{self.name}_total"
            f"{_render_labels(self.label_names, key)} {_format_value(value)}"
            for key, value in sorted(self._values.items())
        ]

    def sample_dicts(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(zip(self.label_names, key)), "value": value}
            for key, value in sorted(self._values.items())
        ]


class Gauge(_Metric):
    """A value that can go up and down (current job counts, rates)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str, labels: Sequence[str] = (), unit: str = ""
    ) -> None:
        super().__init__(name, help, labels, unit)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(self.label_names, labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(self.label_names, labels), 0.0)

    def samples(self) -> List[str]:
        return [
            f"{self.name}"
            f"{_render_labels(self.label_names, key)} {_format_value(value)}"
            for key, value in sorted(self._values.items())
        ]

    def sample_dicts(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(zip(self.label_names, key)), "value": value}
            for key, value in sorted(self._values.items())
        ]


class Histogram(_Metric):
    """Cumulative-bucket histogram (per-event wall times, job durations)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        unit: str = "",
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels, unit)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if any(b1 == b2 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name!r} has duplicate buckets")
        self.buckets = bounds
        # Per labelset: [per-bound counts..., +Inf count], total count, sum.
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._totals: Dict[Tuple[str, ...], List[float]] = {}

    def _slot(self, labels: Mapping[str, Any]) -> Tuple[List[int], List[float]]:
        key = _label_key(self.label_names, labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * (len(self.buckets) + 1)
            self._totals[key] = [0.0, 0.0]  # [count, sum]
        return counts, self._totals[key]

    def observe(self, value: float, **labels: Any) -> None:
        counts, totals = self._slot(labels)
        counts[bisect_left(self.buckets, value)] += 1
        totals[0] += 1
        totals[1] += value

    def merge_counts(
        self,
        bucket_counts: Sequence[int],
        total_sum: float,
        **labels: Any,
    ) -> None:
        """Fold pre-aggregated per-bucket counts in (the profiler path).

        ``bucket_counts`` must align with ``self.buckets`` plus a final
        overflow (+Inf) slot.
        """
        if len(bucket_counts) != len(self.buckets) + 1:
            raise ValueError(
                f"expected {len(self.buckets) + 1} bucket counts, "
                f"got {len(bucket_counts)}"
            )
        counts, totals = self._slot(labels)
        for index, n in enumerate(bucket_counts):
            counts[index] += n
        totals[0] += sum(bucket_counts)
        totals[1] += total_sum

    def samples(self) -> List[str]:
        out: List[str] = []
        for key in sorted(self._counts):
            counts = self._counts[key]
            total, acc = self._totals[key]
            cumulative = 0
            for bound, n in zip(self.buckets, counts):
                cumulative += n
                le = _format_value(float(bound))
                out.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(self.label_names, key, ('le', le))}"
                    f" {cumulative}"
                )
            out.append(
                f"{self.name}_bucket"
                f"{_render_labels(self.label_names, key, ('le', '+Inf'))}"
                f" {int(total)}"
            )
            labels_text = _render_labels(self.label_names, key)
            out.append(f"{self.name}_count{labels_text} {int(total)}")
            out.append(f"{self.name}_sum{labels_text} {_format_value(acc)}")
        return out

    def sample_dicts(self) -> List[Dict[str, Any]]:
        out = []
        for key in sorted(self._counts):
            total, acc = self._totals[key]
            out.append(
                {
                    "labels": dict(zip(self.label_names, key)),
                    "count": int(total),
                    "sum": acc,
                    "buckets": dict(
                        zip(
                            [*map(float, self.buckets), math.inf],
                            self._counts[key],
                        )
                    ),
                }
            )
        return out


class MetricRegistry:
    """A namespace of metrics with one renderer.

    Registration is idempotent for an identical re-declaration (same
    kind, labels, and -- for histograms -- buckets), so publishers can
    declare what they need without coordinating; a *conflicting*
    redeclaration raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is None:
            self._metrics[metric.name] = metric
            return metric
        if (
            existing.kind != metric.kind
            or existing.label_names != metric.label_names
            or (
                isinstance(existing, Histogram)
                and isinstance(metric, Histogram)
                and existing.buckets != metric.buckets
            )
        ):
            raise ValueError(
                f"metric {metric.name!r} re-registered with a different shape "
                f"({existing.kind}{existing.label_names} vs "
                f"{metric.kind}{metric.label_names})"
            )
        return existing

    def counter(
        self, name: str, help: str, labels: Sequence[str] = (), unit: str = ""
    ) -> Counter:
        metric = self._register(Counter(name, help, labels, unit))
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, help: str, labels: Sequence[str] = (), unit: str = ""
    ) -> Gauge:
        metric = self._register(Gauge(name, help, labels, unit))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        unit: str = "",
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        metric = self._register(Histogram(name, help, labels, unit, buckets))
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterable[_Metric]:
        return iter(self._metrics.values())

    def to_dict(self) -> Dict[str, Any]:
        """JSON form of every family (the daemon's ``/status`` payload)."""
        return {
            name: {
                "kind": metric.kind,
                "help": metric.help,
                "unit": metric.unit,
                "labels": list(metric.label_names),
                "samples": metric.sample_dicts(),  # type: ignore[attr-defined]
            }
            for name, metric in sorted(self._metrics.items())
        }


def render_openmetrics(registry: MetricRegistry) -> str:
    """The registry as OpenMetrics 1.0 text exposition (with ``# EOF``)."""
    lines: List[str] = []
    for name in sorted(metric.name for metric in registry):
        metric = registry.get(name)
        assert metric is not None
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if metric.unit:
            lines.append(f"# UNIT {metric.name} {metric.unit}")
        lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.extend(metric.samples())  # type: ignore[attr-defined]
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# OpenMetrics structural validation (the CI scrape gate)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)(\s+\S+)?$"
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)

#: Sample-name suffixes each family kind may emit.
_KIND_SUFFIXES = {
    "counter": ("_total", "_created"),
    "gauge": ("",),
    "histogram": ("_bucket", "_count", "_sum", "_created"),
    "summary": ("", "_count", "_sum", "_created"),
    "info": ("_info",),
    "stateset": ("",),
    "unknown": ("",),
    "untyped": ("",),
}


def _family_for_sample(
    sample_name: str, families: Mapping[str, str]
) -> Optional[Tuple[str, str]]:
    """Resolve a sample name to ``(family, suffix)`` against known TYPEs."""
    candidates = []
    for family, kind in families.items():
        for suffix in _KIND_SUFFIXES.get(kind, ("",)):
            if sample_name == family + suffix:
                candidates.append((family, suffix))
    if not candidates:
        return None
    # Longest family name wins (x vs x_total both declared).
    return max(candidates, key=lambda item: len(item[0]))


def validate_openmetrics(text: str) -> List[str]:
    """Structurally validate an OpenMetrics scrape body; returns problems.

    An empty list means: metadata lines are well-formed, every sample
    belongs to a ``# TYPE``-declared family using a legal suffix for its
    kind (counters expose ``_total``, histograms ``_bucket``/``_count``/
    ``_sum`` with cumulative ``le`` buckets), label syntax parses, values
    are numbers, families are not interleaved or redeclared, and the
    body ends with ``# EOF`` and nothing after it.
    """
    problems: List[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return ["empty exposition"]
    if lines[-1] != "# EOF":
        problems.append("missing '# EOF' terminator as the final line")
    families: Dict[str, str] = {}
    help_seen: set = set()
    order: List[str] = []

    def note_family_position(family: str, where: str) -> None:
        if order and order[-1] == family:
            return
        if family in order:
            problems.append(
                f"{where}: family {family!r} is interleaved with other families"
            )
        order.append(family)

    for position, line in enumerate(lines):
        where = f"line {position + 1}"
        if line == "# EOF":
            if position != len(lines) - 1:
                problems.append(f"{where}: content after '# EOF'")
            continue
        if not line:
            problems.append(f"{where}: blank line is not allowed")
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in (
                "TYPE", "HELP", "UNIT",
            ):
                problems.append(f"{where}: malformed comment line {line!r}")
                continue
            keyword, name = parts[1], parts[2]
            if not _NAME_RE.match(name):
                problems.append(f"{where}: invalid metric name {name!r}")
                continue
            if keyword == "TYPE":
                if len(parts) != 4:
                    problems.append(f"{where}: TYPE line needs a kind")
                    continue
                kind = parts[3]
                if kind not in _KIND_SUFFIXES:
                    problems.append(f"{where}: unknown metric type {kind!r}")
                    continue
                if name in families:
                    problems.append(f"{where}: duplicate TYPE for {name!r}")
                    continue
                families[name] = kind
                note_family_position(name, where)
            elif keyword == "HELP":
                if name in help_seen:
                    problems.append(f"{where}: duplicate HELP for {name!r}")
                help_seen.add(name)
                note_family_position(name, where)
            else:  # UNIT
                note_family_position(name, where)
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"{where}: unparseable sample line {line!r}")
            continue
        sample_name, labels_text, value_text = (
            match.group(1), match.group(2), match.group(3),
        )
        resolved = _family_for_sample(sample_name, families)
        if resolved is None:
            problems.append(
                f"{where}: sample {sample_name!r} has no preceding # TYPE"
            )
            continue
        family, suffix = resolved
        note_family_position(family, where)
        kind = families[family]
        if kind == "counter" and suffix == "":
            problems.append(
                f"{where}: counter sample {sample_name!r} must use '_total'"
            )
        labels: Dict[str, str] = {}
        if labels_text:
            body = labels_text[1:-1]
            consumed = _LABEL_PAIR_RE.findall(body)
            rebuilt = ",".join(f'{k}="{v}"' for k, v in consumed)
            if body and rebuilt != body:
                problems.append(f"{where}: malformed label set {labels_text!r}")
            labels = dict(consumed)
        if kind == "histogram" and suffix == "_bucket" and "le" not in labels:
            problems.append(f"{where}: histogram bucket without an 'le' label")
        if value_text not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value_text)
            except ValueError:
                problems.append(f"{where}: non-numeric value {value_text!r}")
    return problems


# ----------------------------------------------------------------------
# The stable metric catalog
# ----------------------------------------------------------------------
#: Deterministic counter fields a :class:`~repro.perf.counters.PerfSnapshot`
#: carries (everything but ``sim_time``, which becomes the sim-seconds
#: counter below).
PERF_COUNTER_FIELDS: Tuple[str, ...] = (
    "events_dispatched",
    "stale_pops",
    "timers_scheduled",
    "timers_cancelled",
    "heap_compactions",
    "packets_in",
    "packets_delivered",
    "packets_dropped",
    "bytes_delivered",
    "scheduler_decisions",
    "scheduler_waits",
)

#: The stable catalog: ``name -> (kind, help, label names)``.  Docs
#: (``docs/observability.md``) table-ify this; tests pin it; renaming an
#: entry is a breaking change to every scrape config downstream.
CATALOG: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    # -- campaign store (gauges reflect ground truth at scrape time) ----
    "repro_campaign_jobs": (
        "gauge", "Jobs in the campaign store by status.", ("campaign", "status"),
    ),
    "repro_campaign_transitions": (
        "counter",
        "Job state-machine transitions applied by the store.",
        ("campaign", "from_status", "to_status"),
    ),
    # -- journal / drain outcomes ---------------------------------------
    "repro_campaign_journal_records": (
        "counter", "Run-journal records observed, by record type.",
        ("campaign", "record"),
    ),
    "repro_campaign_job_outcomes": (
        "counter",
        "Terminal job outcomes observed by drains (cached/executed/failed).",
        ("campaign", "status"),
    ),
    "repro_campaign_retries": (
        "counter", "Timed-out attempts that were retried.", ("campaign",),
    ),
    "repro_campaign_drains": (
        "counter", "Executor batches (drains) started.", ("campaign",),
    ),
    # -- perf counters (sim-time flavor: deterministic totals) ----------
    **{
        f"repro_perf_{field}": (
            "counter",
            f"Perf counter total: {field.replace('_', ' ')}.",
            ("campaign",),
        )
        for field in PERF_COUNTER_FIELDS
    },
    "repro_perf_sim_seconds": (
        "counter",
        "Simulated seconds covered by measured runs (sim-time flavor).",
        ("campaign",),
    ),
    # -- perf wall clock (wall-time flavor: host-dependent) -------------
    "repro_perf_wall_seconds": (
        "counter",
        "Host wall seconds spent inside measured runs (wall-time flavor).",
        ("campaign",),
    ),
    # -- sim-profiler ----------------------------------------------------
    "repro_profile_component_calls": (
        "counter",
        "Sim-profiler: dispatched calls attributed to a component "
        "(deterministic).",
        ("component",),
    ),
    "repro_profile_component_wall_seconds": (
        "counter",
        "Sim-profiler: host wall seconds attributed to a component "
        "(wall-time flavor).",
        ("component",),
    ),
    "repro_profile_event_seconds": (
        "histogram",
        "Sim-profiler: per-dispatch wall-time distribution by component.",
        ("component",),
    ),
    # -- daemon ----------------------------------------------------------
    "repro_serve_scrapes": (
        "counter", "HTTP scrapes served by the campaign daemon.", (),
    ),
    "repro_serve_loops": (
        "counter", "Drain-loop iterations completed by the daemon.", ("campaign",),
    ),
    "repro_serve_events_per_second": (
        "gauge",
        "Recent simulator events per wall second across drained jobs.",
        ("campaign",),
    ),
}


def default_registry() -> MetricRegistry:
    """A registry pre-declaring the whole :data:`CATALOG`."""
    registry = MetricRegistry()
    for name, (kind, help_text, labels) in CATALOG.items():
        if kind == "counter":
            registry.counter(name, help_text, labels)
        elif kind == "gauge":
            registry.gauge(name, help_text, labels)
        else:
            registry.histogram(name, help_text, labels)
    return registry


# ----------------------------------------------------------------------
# Publishers: the formerly disjoint telemetry sources
# ----------------------------------------------------------------------
def publish_perf_counters(
    registry: MetricRegistry,
    perf: Mapping[str, Any],
    campaign: str = "",
) -> None:
    """Fold one perf payload into the registry's ``repro_perf_*`` totals.

    Accepts either a flat :meth:`~repro.perf.counters.PerfSnapshot.to_dict`
    mapping or the :meth:`~repro.perf.counters.PerfRecord.to_dict` shape
    (``counters`` nested beside ``wall_s``) that rides on executor
    results -- including results that crossed the process-pool boundary.
    """
    counters = perf.get("counters")
    flat: Mapping[str, Any] = counters if isinstance(counters, Mapping) else perf
    catalog_kind = lambda n: CATALOG[n]  # noqa: E731 - local alias
    for field in PERF_COUNTER_FIELDS:
        value = flat.get(field)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            name = f"repro_perf_{field}"
            registry.counter(name, catalog_kind(name)[1], ("campaign",)).inc(
                value, campaign=campaign
            )
    sim_s = flat.get("sim_time", perf.get("sim_s"))
    if isinstance(sim_s, (int, float)) and not isinstance(sim_s, bool) and sim_s >= 0:
        registry.counter(
            "repro_perf_sim_seconds",
            CATALOG["repro_perf_sim_seconds"][1],
            ("campaign",),
        ).inc(sim_s, campaign=campaign)
    wall_s = perf.get("wall_s")
    if isinstance(wall_s, (int, float)) and not isinstance(wall_s, bool) and wall_s >= 0:
        registry.counter(
            "repro_perf_wall_seconds",
            CATALOG["repro_perf_wall_seconds"][1],
            ("campaign",),
        ).inc(wall_s, campaign=campaign)


def publish_journal_record(
    registry: MetricRegistry,
    record: Mapping[str, Any],
    campaign: str = "",
) -> None:
    """Fold one :class:`~repro.obs.journal.RunJournal` record in."""
    kind = str(record.get("record", "unknown"))
    registry.counter(
        "repro_campaign_journal_records",
        CATALOG["repro_campaign_journal_records"][1],
        ("campaign", "record"),
    ).inc(campaign=campaign, record=kind)
    if kind == "job":
        registry.counter(
            "repro_campaign_job_outcomes",
            CATALOG["repro_campaign_job_outcomes"][1],
            ("campaign", "status"),
        ).inc(campaign=campaign, status=str(record.get("status", "unknown")))
    elif kind == "retry":
        registry.counter(
            "repro_campaign_retries",
            CATALOG["repro_campaign_retries"][1],
            ("campaign",),
        ).inc(campaign=campaign)
    elif kind == "batch_start":
        registry.counter(
            "repro_campaign_drains",
            CATALOG["repro_campaign_drains"][1],
            ("campaign",),
        ).inc(campaign=campaign)


def publish_store_counts(
    registry: MetricRegistry,
    counts: Mapping[str, int],
    campaign: str = "",
) -> None:
    """Reflect per-status job counts (store ground truth) as gauges."""
    gauge = registry.gauge(
        "repro_campaign_jobs",
        CATALOG["repro_campaign_jobs"][1],
        ("campaign", "status"),
    )
    for status, count in counts.items():
        gauge.set(count, campaign=campaign, status=status)


def publish_transition(
    registry: MetricRegistry,
    old_status: str,
    new_status: str,
    campaign: str = "",
) -> None:
    """Count one store state-machine transition."""
    registry.counter(
        "repro_campaign_transitions",
        CATALOG["repro_campaign_transitions"][1],
        ("campaign", "from_status", "to_status"),
    ).inc(campaign=campaign, from_status=old_status, to_status=new_status)


__all__ = [
    "CATALOG",
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "OPENMETRICS_CONTENT_TYPE",
    "PERF_COUNTER_FIELDS",
    "default_registry",
    "publish_journal_record",
    "publish_perf_counters",
    "publish_store_counts",
    "publish_transition",
    "render_openmetrics",
    "validate_openmetrics",
]
