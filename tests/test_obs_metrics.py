"""Tests for repro.obs.registry: registry, rendering, validation, publishers."""

import inspect
import math
import re
from pathlib import Path

import pytest

from repro.obs import registry as registry_module
from repro.obs.registry import (
    CATALOG,
    OPENMETRICS_CONTENT_TYPE,
    PERF_COUNTER_FIELDS,
    Counter,
    Gauge,
    MetricRegistry,
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


class TestRegistry:
    def test_undeclared_name_raises(self):
        registry = MetricRegistry()
        with pytest.raises(KeyError):
            registry["no_such_family"]
        # The same family object every time: there is nothing to re-register.
        assert registry["repro_serve_loops"] is registry["repro_serve_loops"]

    @pytest.mark.parametrize("name, entry", [
        pytest.param("7bad", ("counter", "help", ()), id="family-name"),
        pytest.param(
            "repro_x", ("counter", "help", ("bad-label",)), id="label-name"
        ),
        pytest.param("repro_x", ("histogram", "help", ()), id="unknown-kind"),
    ])
    def test_malformed_catalog_entry_fails_at_construction(
        self, monkeypatch, name, entry
    ):
        monkeypatch.setitem(registry_module.CATALOG, name, entry)
        with pytest.raises((ValueError, KeyError)):
            MetricRegistry()

    def test_default_registry_declares_catalog(self):
        registry = MetricRegistry()
        assert [metric.name for metric in registry] == list(CATALOG)
        for name, (kind, help_text, labels) in CATALOG.items():
            metric = registry[name]
            assert (metric.kind, metric.help, metric.label_names) == (
                kind, help_text, labels,
            )

    def test_registries_do_not_share_samples(self):
        first, second = MetricRegistry(), MetricRegistry()
        first["repro_serve_scrapes"].inc()
        assert second["repro_serve_scrapes"].value() == 0


class TestRender:
    def test_ends_with_eof(self):
        assert render_openmetrics(MetricRegistry()).endswith("# EOF\n")

    def test_families_sorted_and_typed(self):
        registry = MetricRegistry()
        registry["repro_serve_scrapes"].inc()
        registry["repro_campaign_jobs"].set(1, campaign="c", status="done")
        text = render_openmetrics(registry)
        lines = text.splitlines()
        # Every declared family gets its metadata, sampled or not, in
        # sorted order (CATALOG itself is grouped by source, not sorted).
        typed = [line.split(" ")[2] for line in lines if line.startswith("# TYPE ")]
        assert typed == sorted(CATALOG)
        assert "# TYPE repro_campaign_jobs gauge" in lines
        assert "# TYPE repro_serve_scrapes counter" in lines
        assert validate_openmetrics(text) == []

    def test_label_escaping_survives_validation(self):
        registry = MetricRegistry()
        registry["repro_campaign_retries"].inc(
            campaign='we "quote" and \\ and\nnewline'
        )
        text = render_openmetrics(registry)
        assert validate_openmetrics(text) == []

    @pytest.mark.parametrize("campaign, on_the_wire", [
        pytest.param("fig{9}", "fig{9}", id="braces"),
        pytest.param("fig}9", "fig}9", id="close-brace"),
        pytest.param("{", "{", id="open-brace"),
        pytest.param("a,b", "a,b", id="comma"),
        pytest.param('x="y"', 'x=\\"y\\"', id="equals-quote"),
        pytest.param('q\\"q', 'q\\\\\\"q', id="backslash-quote"),
        pytest.param('a="}",b', 'a=\\"}\\",b', id="all-of-them"),
    ])
    def test_label_value_punctuation_survives_validation(
        self, campaign, on_the_wire
    ):
        # A campaign name is a free CLI positional: braces, commas and
        # quotes inside a label value are legal on the wire.
        registry = MetricRegistry()
        publish_store_counts(registry, {"done": 3}, campaign=campaign)
        text = render_openmetrics(registry)
        assert (
            f'repro_campaign_jobs{{campaign="{on_the_wire}",status="done"}} 3'
            in text.splitlines()
        )
        assert validate_openmetrics(text) == []

    def test_full_default_registry_render_is_valid(self):
        registry = MetricRegistry()
        registry["repro_campaign_transitions"].inc(
            campaign="c", from_status="pending", to_status="running"
        )
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

    def test_foreign_family_kinds_pass(self):
        # A scrape file from outside the process may carry kinds this
        # registry never renders.  Values are not interpreted: the
        # non-cumulative +Inf bucket below is structurally fine.
        text = (
            "# TYPE h histogram\n"
            "# UNIT h seconds\n"
            "# HELP h a histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_count 3\n"
            "h_sum 2.5\n"
            "# TYPE s summary\n"
            's{quantile="0.5"} 1 1700000000\n'
            "s_count 1\n"
            "# TYPE i info\n"
            'i_info{version="1"} 1\n'
            "# TYPE g gauge\n"
            "g NaN\n"
            "# EOF\n"
        )
        assert validate_openmetrics(text) == []

    #: One minimal malformed body per rejection branch:
    #: (body, line the message must name or None, message fragment).
    REJECTIONS = {
        "empty": ("", None, "empty exposition"),
        "no-eof": ("# TYPE x gauge\nx 1\n", None, "missing '# EOF' terminator"),
        "after-eof": (
            "# TYPE x gauge\n# EOF\nx 1\n# EOF\n", 2, "content after '# EOF'",
        ),
        "blank-line": (
            "# TYPE x gauge\n\nx 1\n# EOF\n", 2, "blank line is not allowed",
        ),
        "comment-keyword": ("# NOPE x y\n# EOF\n", 1, "malformed comment line"),
        "comment-spacing": ("#TYPE x gauge\n# EOF\n", 1, "malformed comment line"),
        "family-name": ("# TYPE 9x gauge\n# EOF\n", 1, "invalid metric name '9x'"),
        "type-without-kind": ("# TYPE x\n# EOF\n", 1, "TYPE line needs a kind"),
        "unknown-kind": (
            "# TYPE x banana\n# EOF\n", 1, "unknown metric type 'banana'",
        ),
        "duplicate-type": (
            "# TYPE x gauge\n# TYPE x gauge\n# EOF\n", 2, "duplicate TYPE for 'x'",
        ),
        "duplicate-help": (
            "# TYPE x gauge\n# HELP x a\n# HELP x b\n# EOF\n",
            3, "duplicate HELP for 'x'",
        ),
        "interleaved-sample": (
            "# TYPE a gauge\n# TYPE b gauge\na 1\n# EOF\n",
            3, "family 'a' is interleaved",
        ),
        "interleaved-metadata": (
            "# TYPE a gauge\n# TYPE b gauge\n# UNIT a seconds\n# EOF\n",
            3, "family 'a' is interleaved",
        ),
        "unparseable-sample": (
            '# TYPE x gauge\nx{a="1" 1\n# EOF\n', 2, "unparseable sample line",
        ),
        "untyped-sample": ("mystery 1\n# EOF\n", 1, "is no preceding # TYPE family"),
        # A counter sample without ``_total`` resolves to no family.
        "counter-without-total": (
            "# TYPE x counter\nx 1\n# EOF\n", 2, "is no preceding # TYPE family",
        ),
        "unquoted-label-value": (
            "# TYPE x gauge\nx{a=1} 1\n# EOF\n", 2, "malformed label set",
        ),
        "trailing-label-comma": (
            '# TYPE x gauge\nx{a="1",} 1\n# EOF\n', 2, "malformed label set",
        ),
        "bucket-without-le": (
            "# TYPE h histogram\nh_bucket 1\n# EOF\n",
            2, "histogram bucket without an 'le' label",
        ),
        "non-numeric-value": (
            "# TYPE x gauge\nx banana\n# EOF\n", 2, "non-numeric value 'banana'",
        ),
    }

    @pytest.mark.parametrize("case", list(REJECTIONS))
    def test_each_rejection_names_its_line(self, case):
        body, line, fragment = self.REJECTIONS[case]
        problems = validate_openmetrics(body)
        assert len(problems) == 1, problems
        assert fragment in problems[0]
        if line is not None:
            assert problems[0].startswith(f"line {line}: ")

    def test_rejection_table_covers_every_branch(self):
        # One distinct message per way the validator can say no: a new
        # branch needs a new row above.
        source = inspect.getsource(validate_openmetrics)
        branches = source.count("problems.append(") + source.count("return [")
        assert branches == len(
            {fragment for _, _, fragment in self.REJECTIONS.values()}
        )


class TestPublishers:
    def test_publish_perf_counters_flat(self):
        registry = MetricRegistry()
        perf = {field: float(i + 1) for i, field in enumerate(PERF_COUNTER_FIELDS)}
        publish_perf_counters(registry, perf, campaign="c")
        events = registry["repro_perf_events_dispatched"]
        assert events.value(campaign="c") == perf["events_dispatched"]

    def test_publish_perf_counters_nested_record_shape(self):
        registry = MetricRegistry()
        record = {
            "counters": {"events_dispatched": 10.0, "timers_scheduled": 4.0},
            "wall_s": 0.5,
            "sim_s": 30.0,
        }
        publish_perf_counters(registry, record, campaign="c")
        assert (
            registry["repro_perf_events_dispatched"].value(campaign="c") == 10.0
        )
        assert registry["repro_perf_wall_seconds"].value(campaign="c") == 0.5
        assert registry["repro_perf_sim_seconds"].value(campaign="c") == 30.0

    def test_publish_perf_counters_accumulates(self):
        registry = MetricRegistry()
        publish_perf_counters(registry, {"events_dispatched": 5.0}, campaign="c")
        publish_perf_counters(registry, {"events_dispatched": 7.0}, campaign="c")
        assert (
            registry["repro_perf_events_dispatched"].value(campaign="c") == 12.0
        )

    def test_publish_journal_record_routes_by_kind(self):
        registry = MetricRegistry()
        publish_journal_record(
            registry, {"record": "job", "status": "executed"}, campaign="c"
        )
        publish_journal_record(
            registry, {"record": "job", "status": "cached"}, campaign="c"
        )
        publish_journal_record(registry, {"record": "retry"}, campaign="c")
        publish_journal_record(registry, {"record": "batch_start"}, campaign="c")
        outcomes = registry["repro_campaign_job_outcomes"]
        assert outcomes.value(campaign="c", status="executed") == 1
        assert outcomes.value(campaign="c", status="cached") == 1
        assert registry["repro_campaign_retries"].value(campaign="c") == 1
        assert registry["repro_campaign_drains"].value(campaign="c") == 1

    def test_publish_store_counts_sets_gauges(self):
        registry = MetricRegistry()
        publish_store_counts(
            registry, {"pending": 2, "running": 1, "done": 3, "failed": 0}, "c"
        )
        jobs = registry["repro_campaign_jobs"]
        assert jobs.value(campaign="c", status="pending") == 2
        assert jobs.value(campaign="c", status="done") == 3
        # Re-publishing overwrites (gauge semantics), not accumulates.
        publish_store_counts(
            registry, {"pending": 0, "running": 0, "done": 6, "failed": 0}, "c"
        )
        assert jobs.value(campaign="c", status="pending") == 0
        assert jobs.value(campaign="c", status="done") == 6

    def test_publish_transition_counts_edges(self):
        registry = MetricRegistry()
        publish_transition(registry, "pending", "running", campaign="c")
        publish_transition(registry, "pending", "running", campaign="c")
        publish_transition(registry, "running", "done", campaign="c")
        transitions = registry["repro_campaign_transitions"]
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

    def test_docs_table_matches_catalog(self):
        doc = Path(__file__).parent.parent / "docs" / "observability.md"
        documented = {}
        for name, kind, labels in re.findall(
            r"^\| `(repro_\w+(?:<counter>)?)` \| (\w+) \| ([^|]*) \|",
            doc.read_text(), flags=re.M,
        ):
            shape = (kind, tuple(re.findall(r"`(\w+)`", labels)))
            if name.endswith("<counter>"):
                # One row stands for the whole PERF_COUNTER_FIELDS block.
                for field in PERF_COUNTER_FIELDS:
                    documented[name.replace("<counter>", field)] = shape
            else:
                documented[name] = shape
        assert documented == {
            name: (kind, labels) for name, (kind, _help, labels) in CATALOG.items()
        }

    def test_value_formatting_stable(self):
        c = Counter("repro_x", "h")
        c.inc(1e15 + 0.5)
        value = c.samples()[0].split(" ")[1]
        assert math.isfinite(float(value))
