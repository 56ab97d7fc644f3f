"""Typed metric registry: one telemetry plane over runs and campaigns.

Before this module the repo's telemetry was four disjoint surfaces --
:mod:`repro.perf` counter snapshots, :class:`~repro.obs.journal.RunJournal`
outcome records, :class:`~repro.service.store.CampaignStore` state-machine
transitions, and executor progress events -- each with its own ad-hoc
shape.  The registry unifies them.  :data:`CATALOG` declares every
family once (kind, help text, label names); :class:`MetricRegistry`
instantiates exactly those families, the ``publish_*`` functions fold
each source into them as labelled **counters** and **gauges**, and one
formatter renders the whole registry as OpenMetrics text (``# TYPE`` /
``# HELP`` metadata, the ``_total`` sample-suffix convention for
counters, escaped label values, a terminating ``# EOF``).  The campaign
daemon (:mod:`repro.service.daemon`) serves exactly this text on
``/metrics``.

Metrics come in two time flavors, and the catalog keeps them apart the
same way :class:`~repro.perf.counters.PerfRecord` does: **sim-time**
quantities (``repro_perf_sim_seconds_total``, event/packet/decision
counts) are deterministic functions of the simulated runs, while
**wall-time** quantities (``repro_perf_wall_seconds_total``, scrape
counters) describe the host.  Dashboards that divide one by the other
get events/s; nothing in the registry ever mixes the two in a single
series.

The module is dependency-free within the package (stdlib only): the
daemon imports it, so it cannot import the daemon back.

Example
-------
>>> reg = MetricRegistry()
>>> reg["repro_campaign_retries"].inc(campaign="fig9")
>>> reg["repro_campaign_retries"].inc(2, campaign="fig9")
>>> reg["repro_campaign_retries"].samples()
['repro_campaign_retries_total{campaign="fig9"} 3']
>>> render_openmetrics(reg).splitlines()[-1]
'# EOF'
>>> reg["no_such_family"]
Traceback (most recent call last):
    ...
KeyError: 'no_such_family'
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: HTTP Content-Type for an OpenMetrics scrape body.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


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


def _render_labels(label_names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(label_names, values)
        if value != ""
    )
    return "{" + body + "}" if body else ""


class _Metric:
    """A named family with fixed label names and one sample per label set."""

    kind = "untyped"
    #: Appended to the family name on every sample line.
    suffix = ""

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {name!r}")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def _key(self, labels: Mapping[str, Any]) -> Tuple[str, ...]:
        extra = set(labels) - set(self.label_names)
        if extra:
            raise ValueError(
                f"undeclared label(s) {sorted(extra)}; declared: {self.label_names}"
            )
        return tuple(str(labels.get(name, "")) for name in self.label_names)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> List[str]:
        return [
            f"{self.name}{self.suffix}"
            f"{_render_labels(self.label_names, key)} {_format_value(value)}"
            for key, value in sorted(self._values.items())
        ]


class Counter(_Metric):
    """Monotonically increasing total; rendered with the ``_total`` suffix."""

    kind = "counter"
    suffix = "_total"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount!r})")
        super().inc(amount, **labels)


class Gauge(_Metric):
    """A value that can go up and down (current job counts, rates)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._values[self._key(labels)] = float(value)


class MetricRegistry:
    """One instance of every :data:`CATALOG` family, and nothing else.

    Construction is the only way a family comes into a registry (names
    and label syntax are validated there, once); ``registry[name]`` is
    the only way to reach one, and an undeclared name is a ``KeyError``.
    """

    def __init__(self) -> None:
        kinds = {"counter": Counter, "gauge": Gauge}
        self._metrics: Dict[str, _Metric] = {
            name: kinds[kind](name, help_text, labels)
            for name, (kind, help_text, labels) in CATALOG.items()
        }

    def __getitem__(self, name: str) -> Any:
        """The :class:`Counter` or :class:`Gauge` declared as ``name``
        (typed ``Any``: which of the two is the catalog's to say)."""
        return self._metrics[name]

    def __iter__(self) -> Iterator[_Metric]:
        return iter(self._metrics.values())


def render_openmetrics(registry: MetricRegistry) -> str:
    """The registry as OpenMetrics 1.0 text exposition (with ``# EOF``)."""
    lines: List[str] = []
    for metric in sorted(registry, key=lambda metric: metric.name):
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.extend(metric.samples())
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# OpenMetrics structural validation (`metrics validate`, and the oracle
# the renderer is tested against)
# ----------------------------------------------------------------------
#: The inside of a quoted label value: any character but a bare quote or
#: backslash, or an escape pair -- so ``{``, ``}`` and ``,`` are ordinary.
_LABEL_VALUE = r'(?:[^"\\]|\\.)*'
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="(' + _LABEL_VALUE + r')"')
# The label block ends at the first ``}`` outside a quoted value; what
# sits between the braces is checked pair by pair afterwards.
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(\{(?:[^"}]|"' + _LABEL_VALUE + r'")*\})?'
    r"\s+(\S+)(\s+\S+)?$"
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
    ``_sum``, every ``_bucket`` carrying an ``le`` label), label syntax
    parses, values are numbers, families are not interleaved or
    redeclared, and the body ends with ``# EOF`` and nothing after it.
    Sample *values* are not interpreted: bucket counts that fail to be
    cumulative, or a counter that went down between two scrapes, pass.
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
            # Also where a counter sample without ``_total`` lands: the
            # bare family name is not among a counter's legal suffixes.
            problems.append(
                f"{where}: sample {sample_name!r} is no preceding # TYPE "
                "family plus a suffix legal for its kind"
            )
            continue
        family, suffix = resolved
        note_family_position(family, where)
        kind = families[family]
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
#: carries (everything but ``sim_time``; the record's ``sim_s`` becomes
#: the sim-seconds counter below).
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

#: The stable catalog: ``name -> (kind, help, label names)`` -- the one
#: place a family is declared.  ``docs/observability.md`` table-ifies it
#: (``tests/test_obs_metrics.py`` holds the table to it) and every entry
#: is compared with ground truth in ``tests/test_daemon.py``; renaming
#: one is a breaking change to every scrape config downstream.
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


# ----------------------------------------------------------------------
# Publishers: the formerly disjoint telemetry sources
# ----------------------------------------------------------------------
def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def publish_perf_counters(
    registry: MetricRegistry,
    perf: Mapping[str, Any],
    campaign: str = "",
) -> None:
    """Fold one :meth:`~repro.perf.counters.PerfRecord.to_dict` payload
    (``counters`` nested beside ``wall_s`` and ``sim_s``), as it rides on
    executor results across the process-pool boundary, into the
    registry's ``repro_perf_*`` totals."""
    counters = perf.get("counters") or {}
    for field in PERF_COUNTER_FIELDS:
        value = counters.get(field)
        if _is_number(value):
            registry[f"repro_perf_{field}"].inc(value, campaign=campaign)
    for name, seconds in (
        ("repro_perf_sim_seconds", perf.get("sim_s")),
        ("repro_perf_wall_seconds", perf.get("wall_s")),
    ):
        if _is_number(seconds) and seconds >= 0:
            registry[name].inc(seconds, campaign=campaign)


def publish_journal_record(
    registry: MetricRegistry,
    record: Mapping[str, Any],
    campaign: str = "",
) -> None:
    """Fold one :class:`~repro.obs.journal.RunJournal` record in."""
    kind = str(record.get("record", "unknown"))
    registry["repro_campaign_journal_records"].inc(campaign=campaign, record=kind)
    if kind == "job":
        registry["repro_campaign_job_outcomes"].inc(
            campaign=campaign, status=str(record.get("status", "unknown"))
        )
    elif kind == "retry":
        registry["repro_campaign_retries"].inc(campaign=campaign)
    elif kind == "batch_start":
        registry["repro_campaign_drains"].inc(campaign=campaign)


def publish_store_counts(
    registry: MetricRegistry,
    counts: Mapping[str, int],
    campaign: str = "",
) -> None:
    """Reflect per-status job counts (store ground truth) as gauges."""
    gauge = registry["repro_campaign_jobs"]
    for status, count in counts.items():
        gauge.set(count, campaign=campaign, status=status)


def publish_transition(
    registry: MetricRegistry,
    old_status: str,
    new_status: str,
    campaign: str = "",
) -> None:
    """Count one store state-machine transition."""
    registry["repro_campaign_transitions"].inc(
        campaign=campaign, from_status=old_status, to_status=new_status
    )


__all__ = [
    "CATALOG",
    "Counter",
    "Gauge",
    "MetricRegistry",
    "OPENMETRICS_CONTENT_TYPE",
    "PERF_COUNTER_FIELDS",
    "publish_journal_record",
    "publish_perf_counters",
    "publish_store_counts",
    "publish_transition",
    "render_openmetrics",
    "validate_openmetrics",
]
