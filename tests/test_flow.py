"""Tests for the whole-program analyzer (repro.analysis.flow + rules8xx).

Covers the seeded fixture package (``tests/data/flow``), the
interprocedural taint depth, and noqa suppression.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.flow import Project, extract_module, module_name_for
from repro.analysis.lint import run_lint
from repro.analysis.rules8xx import RULES_8XX

FLOW_DIR = Path(__file__).parent / "data" / "flow"

#: No registries needed: the fixtures exercise the flow rules only.
NO_REGISTRIES: dict = {}


def flow_run(paths=None, **kwargs):
    kwargs.setdefault("registries", NO_REGISTRIES)
    return run_lint(paths or [FLOW_DIR], **kwargs)


def findings_in(run, filename):
    return [v for v in run.violations if v.path.endswith(filename)]


@pytest.fixture(scope="module")
def fixture_run():
    """One analysis of the fixture package, shared across assertions."""
    return flow_run()


class TestFixturePackage:
    """Every RPR8xx rule fires on its seeded module, nowhere else."""

    def test_rpr811_fires_on_deep(self, fixture_run):
        codes = {v.code for v in findings_in(fixture_run, "deep.py")}
        assert codes == {"RPR811"}

    def test_rpr812_and_813_fire_on_randomness(self, fixture_run):
        codes = {v.code for v in findings_in(fixture_run, "randomness.py")}
        assert {"RPR812", "RPR813"} <= codes

    def test_rpr821_fires_on_specmut(self, fixture_run):
        violations = findings_in(fixture_run, "specmut.py")
        assert [v.code for v in violations] == ["RPR821"]
        assert "RouteSpec" in violations[0].message
        assert "spec.weights.append" in violations[0].message

    def test_rpr831_fires_on_unordered(self, fixture_run):
        violations = findings_in(fixture_run, "unordered.py")
        assert [v.code for v in violations] == ["RPR831"]
        # The sink is one call away: the message must show the path.
        assert "via enqueue" in violations[0].message

    def test_rpr841_fires_on_units(self, fixture_run):
        violations = findings_in(fixture_run, "units.py")
        assert {v.code for v in violations} == {"RPR841"}
        messages = " ".join(v.message for v in violations)
        assert "seconds" in messages and "bytes" in messages

    def test_clean_module_is_quiet(self, fixture_run):
        assert findings_in(fixture_run, "clean.py") == []

    def test_noqa_suppresses_flow_finding(self, fixture_run):
        assert findings_in(fixture_run, "suppressed.py") == []

    def test_every_8xx_rule_represented(self, fixture_run):
        fired = {v.code for v in fixture_run.violations if v.code.startswith("RPR8")}
        assert fired == set(RULES_8XX)


class TestTaintDepth:
    def test_two_hop_chain_reported(self, fixture_run):
        [deepest] = [
            v
            for v in findings_in(fixture_run, "deep.py")
            if "second_hop()" in v.message
        ]
        assert "second_hop -> first_hop -> read_clock -> time.time()" in deepest.message

    def test_cross_module_resolution(self):
        # The chain starts in deep.py but the source lives in clocks.py:
        # resolution must cross the import boundary.
        run = flow_run([FLOW_DIR / "clocks.py", FLOW_DIR / "deep.py"])
        assert any(
            v.code == "RPR811" and v.path.endswith("deep.py")
            for v in run.violations
        )

    def test_source_module_alone_has_no_8xx(self):
        run = flow_run([FLOW_DIR / "clocks.py"])
        assert {v.code for v in run.violations} == {"RPR101"}


class TestProjectInternals:
    def test_module_names(self):
        assert module_name_for("src/repro/sim/engine.py") == "repro.sim.engine"
        assert (
            module_name_for("tests/data/flow/deep.py") == "tests.data.flow.deep"
        )

    def test_taint_scope_excludes_telemetry_packages(self):
        source = "import time\n\ndef stamp():\n    return time.time()\n"
        summary = extract_module(source, "src/repro/obs/journal.py")
        project = Project([summary])
        assert not project.in_taint_scope("repro.obs.journal")
        assert not project.in_taint_scope("repro.experiments.exec")
        for module in (
            "repro.sim.engine", "repro.net.link", "repro.tcp.subflow",
            "repro.mptcp.connection", "repro.core.ecf", "repro.apps.bulk",
            "repro.workloads.web",
        ):
            assert project.in_taint_scope(module), module
        # Non-repro files (fixtures, scripts) are always in scope.
        assert project.in_taint_scope("tests.data.flow.deep")
