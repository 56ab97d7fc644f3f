"""Tests for repro.obs.registry: registry, rendering, validation, publishers."""

import math

import pytest

from repro.obs.registry import (
    CATALOG,
    OPENMETRICS_CONTENT_TYPE,
    PERF_COUNTER_FIELDS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    default_registry,
    publish_journal_record,
    publish_perf_counters,
    publish_store_counts,
    publish_transition,
    render_openmetrics,
    validate_openmetrics,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("repro_x", "help")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labelled_series_are_independent(self):
        c = Counter("repro_x", "help", labels=("campaign",))
        c.inc(campaign="a")
        c.inc(3, campaign="b")
        assert c.value(campaign="a") == 1
        assert c.value(campaign="b") == 3
        assert c.value(campaign="missing") == 0

    def test_cannot_decrease(self):
        c = Counter("repro_x", "help")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_undeclared_label_rejected(self):
        c = Counter("repro_x", "help", labels=("campaign",))
        with pytest.raises(ValueError):
            c.inc(backend="pool")

    def test_samples_carry_total_suffix(self):
        c = Counter("repro_x", "help")
        c.inc(7)
        assert c.samples() == ["repro_x_total 7"]

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("7bad", "help")
        with pytest.raises(ValueError):
            Counter("has space", "help")


class TestGauge:
    def test_set_inc_value(self):
        g = Gauge("repro_g", "help")
        g.set(5)
        g.inc(-2)
        assert g.value() == 3

    def test_samples_have_no_suffix(self):
        g = Gauge("repro_g", "help", labels=("status",))
        g.set(4, status="done")
        assert g.samples() == ['repro_g{status="done"} 4']


class TestHistogram:
    def test_observe_buckets_cumulative(self):
        h = Histogram("repro_h", "help", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        lines = h.samples()
        assert 'repro_h_bucket{le="0.1"} 1' in lines
        assert 'repro_h_bucket{le="1"} 2' in lines
        assert 'repro_h_bucket{le="+Inf"} 3' in lines
        assert "repro_h_count 3" in lines
        assert any(line.startswith("repro_h_sum ") for line in lines)

    def test_merge_counts_folds_preaggregated(self):
        h = Histogram("repro_h", "help", buckets=(0.1, 1.0))
        h.merge_counts([2, 1, 4], 3.25)
        h.merge_counts([1, 0, 0], 0.01)
        lines = h.samples()
        assert 'repro_h_bucket{le="+Inf"} 8' in lines
        assert "repro_h_count 8" in lines
        assert "repro_h_sum 3.26" in lines

    def test_merge_counts_shape_checked(self):
        h = Histogram("repro_h", "help", buckets=(0.1, 1.0))
        with pytest.raises(ValueError):
            h.merge_counts([1, 2], 0.5)


class TestRegistry:
    def test_idempotent_reregistration(self):
        registry = MetricRegistry()
        a = registry.counter("repro_x", "help", labels=("campaign",))
        b = registry.counter("repro_x", "other help", labels=("campaign",))
        assert a is b

    def test_shape_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("repro_x", "help")
        with pytest.raises(ValueError):
            registry.gauge("repro_x", "help")
        with pytest.raises(ValueError):
            registry.counter("repro_x", "help", labels=("campaign",))

    def test_default_registry_declares_catalog(self):
        registry = default_registry()
        names = {metric.name for metric in registry}
        for name, (kind, _help, _labels) in CATALOG.items():
            assert name in names
            metric = registry.get(name)
            assert metric.kind == kind

    def test_to_dict_round_trips_values(self):
        registry = MetricRegistry()
        registry.counter("repro_x", "help").inc(3)
        doc = registry.to_dict()
        assert doc["repro_x"]["kind"] == "counter"
        assert doc["repro_x"]["samples"][0]["value"] == 3


class TestRender:
    def test_ends_with_eof(self):
        assert render_openmetrics(MetricRegistry()).endswith("# EOF\n")

    def test_families_sorted_and_typed(self):
        registry = MetricRegistry()
        registry.counter("repro_b", "second").inc()
        registry.gauge("repro_a", "first").set(1)
        text = render_openmetrics(registry)
        lines = text.splitlines()
        assert lines.index("# TYPE repro_a gauge") < lines.index(
            "# TYPE repro_b counter"
        )
        assert validate_openmetrics(text) == []

    def test_label_escaping_survives_validation(self):
        registry = MetricRegistry()
        registry.counter("repro_x", "help", labels=("campaign",)).inc(
            campaign='we "quote" and \\ and\nnewline'
        )
        text = render_openmetrics(registry)
        assert validate_openmetrics(text) == []

    def test_full_default_registry_render_is_valid(self):
        registry = default_registry()
        registry.counter(
            "repro_campaign_transitions",
            "x",
            labels=("campaign", "from_status", "to_status"),
        ).inc(campaign="c", from_status="pending", to_status="running")
        registry.histogram(
            "repro_profile_event_seconds", "x", labels=("component",)
        ).observe(0.001, component="link.delivery")
        assert validate_openmetrics(render_openmetrics(registry)) == []

    def test_content_type_pinned(self):
        assert "openmetrics-text" in OPENMETRICS_CONTENT_TYPE


class TestValidate:
    def test_missing_eof_flagged(self):
        assert validate_openmetrics("# TYPE x counter\nx_total 1\n")

    def test_untyped_family_flagged(self):
        problems = validate_openmetrics("mystery_metric 1\n# EOF\n")
        assert any("undeclared" in p or "TYPE" in p for p in problems)

    def test_counter_without_total_flagged(self):
        text = "# TYPE x counter\nx 1\n# EOF\n"
        assert validate_openmetrics(text)

    def test_non_numeric_value_flagged(self):
        text = "# TYPE x gauge\nx banana\n# EOF\n"
        assert validate_openmetrics(text)

    def test_valid_document_passes(self):
        text = (
            "# TYPE x counter\n"
            "# HELP x help\n"
            'x_total{campaign="a"} 1\n'
            "# EOF\n"
        )
        assert validate_openmetrics(text) == []


class TestPublishers:
    def test_publish_perf_counters_flat(self):
        registry = default_registry()
        perf = {field: float(i + 1) for i, field in enumerate(PERF_COUNTER_FIELDS)}
        publish_perf_counters(registry, perf, campaign="c")
        events = registry.get("repro_perf_events_dispatched")
        assert events.value(campaign="c") == perf["events_dispatched"]

    def test_publish_perf_counters_nested_record_shape(self):
        registry = default_registry()
        record = {
            "counters": {"events_dispatched": 10.0, "timers_scheduled": 4.0},
            "wall_s": 0.5,
            "sim_s": 30.0,
        }
        publish_perf_counters(registry, record, campaign="c")
        assert (
            registry.get("repro_perf_events_dispatched").value(campaign="c") == 10.0
        )
        assert registry.get("repro_perf_wall_seconds").value(campaign="c") == 0.5
        assert registry.get("repro_perf_sim_seconds").value(campaign="c") == 30.0

    def test_publish_perf_counters_accumulates(self):
        registry = default_registry()
        publish_perf_counters(registry, {"events_dispatched": 5.0}, campaign="c")
        publish_perf_counters(registry, {"events_dispatched": 7.0}, campaign="c")
        assert (
            registry.get("repro_perf_events_dispatched").value(campaign="c") == 12.0
        )

    def test_publish_journal_record_routes_by_kind(self):
        registry = default_registry()
        publish_journal_record(
            registry, {"record": "job", "status": "executed"}, campaign="c"
        )
        publish_journal_record(
            registry, {"record": "job", "status": "cached"}, campaign="c"
        )
        publish_journal_record(registry, {"record": "retry"}, campaign="c")
        publish_journal_record(registry, {"record": "batch_start"}, campaign="c")
        outcomes = registry.get("repro_campaign_job_outcomes")
        assert outcomes.value(campaign="c", status="executed") == 1
        assert outcomes.value(campaign="c", status="cached") == 1
        assert registry.get("repro_campaign_retries").value(campaign="c") == 1
        assert registry.get("repro_campaign_drains").value(campaign="c") == 1

    def test_publish_store_counts_sets_gauges(self):
        registry = default_registry()
        publish_store_counts(
            registry, {"pending": 2, "running": 1, "done": 3, "failed": 0}, "c"
        )
        jobs = registry.get("repro_campaign_jobs")
        assert jobs.value(campaign="c", status="pending") == 2
        assert jobs.value(campaign="c", status="done") == 3
        # Re-publishing overwrites (gauge semantics), not accumulates.
        publish_store_counts(
            registry, {"pending": 0, "running": 0, "done": 6, "failed": 0}, "c"
        )
        assert jobs.value(campaign="c", status="pending") == 0
        assert jobs.value(campaign="c", status="done") == 6

    def test_publish_transition_counts_edges(self):
        registry = default_registry()
        publish_transition(registry, "pending", "running", campaign="c")
        publish_transition(registry, "pending", "running", campaign="c")
        publish_transition(registry, "running", "done", campaign="c")
        transitions = registry.get("repro_campaign_transitions")
        assert transitions.value(
            campaign="c", from_status="pending", to_status="running"
        ) == 2
        assert transitions.value(
            campaign="c", from_status="running", to_status="done"
        ) == 1


class TestCatalog:
    def test_catalog_shapes_are_consistent(self):
        for name, (kind, help_text, labels) in CATALOG.items():
            assert kind in ("counter", "gauge", "histogram")
            assert help_text
            assert isinstance(labels, tuple)
            assert name.startswith("repro_")

    def test_perf_fields_have_catalog_entries(self):
        for field in PERF_COUNTER_FIELDS:
            assert f"repro_perf_{field}" in CATALOG

    def test_value_formatting_stable(self):
        c = Counter("repro_x", "h")
        c.inc(1e15 + 0.5)
        value = c.samples()[0].split(" ")[1]
        assert math.isfinite(float(value))
