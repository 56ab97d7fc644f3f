"""Tests for the state-model auditor (repro.analysis.state + RPR91x).

Covers the seeded fixture package (``tests/data/state``), the ownership
graph and simulator component, the state-model document (built in
memory from the sources: deterministic, line-free, scoped), noqa
suppression per rule, and the ``__slots__`` satellite on the hot-path
classes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.flow import module_name_for
from repro.analysis.lint import RULES, run_lint
from repro.analysis.state import (
    RULES_9XX,
    STATE_SCOPE,
    StateModel,
    build_state_model,
    in_state_scope,
    render_state_model,
    state_violations,
)
from repro.cli import main as cli_main

STATE_DIR = Path(__file__).parent / "data" / "state"

NO_REGISTRIES: dict = {}


def state_run(paths=None, **kwargs):
    kwargs.setdefault("registries", NO_REGISTRIES)
    return run_lint(paths or [STATE_DIR], **kwargs)


def findings_in(run, filename):
    return [v for v in run.violations if v.path.endswith(filename)]


@pytest.fixture(scope="module")
def fixture_run():
    """One analysis of the fixture package, shared across assertions."""
    return state_run()


class TestFixturePackage:
    """Every RPR91x rule fires on its seeded module, nowhere else."""

    def test_rpr912_fires_on_slotdrift(self, fixture_run):
        violations = findings_in(fixture_run, "slotdrift.py")
        assert {v.code for v in violations} == {"RPR912"}
        messages = " ".join(v.message for v in violations)
        assert "dead slot" in messages and "retired" in messages
        assert "Gauge.label" in messages
        assert "Probe" in messages and "no __slots__" in messages

    def test_rpr914_fires_on_forkunsafe(self, fixture_run):
        violations = findings_in(fixture_run, "forkunsafe.py")
        assert {v.code for v in violations} == {"RPR914"}
        messages = " ".join(v.message for v in violations)
        assert "OS handle" in messages
        assert "live generator" in messages
        assert "bound method of Simulator" in messages
        assert "lambda" in messages

    def test_rpr914_spares_snapshot_rebind_callables(self, fixture_run):
        messages = " ".join(
            v.message for v in findings_in(fixture_run, "forkunsafe.py")
        )
        # The callable declared in SNAPSHOT_REBIND is fork-safe by
        # construction; the handle stays flagged even though declared.
        assert "RebindRecorder.hook" not in messages
        assert "RebindRecorder.fh" in messages

    def test_rpr915_fires_on_driftdecl(self, fixture_run):
        [violation] = findings_in(fixture_run, "driftdecl.py")
        assert violation.code == "RPR915"
        assert "deadline" in violation.message  # observed but undeclared
        assert "retries" in violation.message  # declared but never assigned

    def test_rpr915_fires_on_subclass_outgrowing_inherited_contract(self, fixture_run):
        [violation] = findings_in(fixture_run, "driftsub.py")
        assert violation.code == "RPR915"
        assert "Gated" in violation.message
        assert "open" in violation.message
        assert "ticks" not in violation.message

    def test_clean_module_is_quiet(self, fixture_run):
        assert findings_in(fixture_run, "clean.py") == []

    def test_noqa_suppresses_every_rule(self, fixture_run):
        assert findings_in(fixture_run, "suppressed.py") == []

    def test_noqa_seeds_resurface_unsuppressed(self, fixture_run):
        # The suppressed module must genuinely seed every rule: the
        # raw (pre-noqa) findings carry one of each family member.
        raw = [
            v
            for v in state_violations(fixture_run.project)
            if v.path.endswith("suppressed.py")
        ]
        assert {v.code for v in raw} == set(RULES_9XX)

    def test_every_9xx_rule_represented(self, fixture_run):
        fired = {v.code for v in fixture_run.violations if v.code.startswith("RPR9")}
        assert set(RULES_9XX) <= fired


class TestOwnershipGraph:
    def test_simulator_is_the_root(self, tree_run):
        model = StateModel(tree_run.project)
        assert model.roots == ["repro.sim.engine.Simulator"]

    def test_component_reaches_the_stack(self, tree_run):
        model = StateModel(tree_run.project)
        reachable = {
            qual for qual, cls in model.classes.items() if cls.in_component
        }
        for expected in (
            "repro.sim.engine.Timer",
            "repro.tcp.subflow.Subflow",
            "repro.mptcp.connection.MptcpConnection",
            "repro.mptcp.receiver.MptcpReceiver",
            "repro.core.ecf.EcfScheduler",
        ):
            assert expected in reachable

    def test_field_kinds_on_the_engine(self, tree_run):
        model = StateModel(tree_run.project)
        timer = model.classes["repro.sim.engine.Timer"]
        assert "callback" in timer.fields
        sim = model.classes["repro.sim.engine.Simulator"]
        assert "_heap" in sim.fields and "now" in sim.fields

    def test_scope_filter(self):
        assert in_state_scope("repro.sim.engine", STATE_SCOPE)
        assert in_state_scope("tests.data.state.slotdrift", STATE_SCOPE)
        assert not in_state_scope("repro.obs.journal", STATE_SCOPE)

    def test_module_names(self):
        assert module_name_for("src/repro/sim/engine.py") == "repro.sim.engine"
        assert (
            module_name_for("tests/data/state/clean.py") == "tests.data.state.clean"
        )


class TestStateModelSnapshot:
    def test_render_is_deterministic(self, tree_run):
        first = render_state_model(build_state_model(tree_run.project))
        second = render_state_model(build_state_model(tree_run.project))
        assert first == second

    def test_model_has_no_line_numbers(self, state_model):
        assert state_model["version"] == 1
        # No positions in the document: moving code does not change it.
        assert '"line"' not in render_state_model(state_model)

    def test_model_covers_only_scoped_repro_classes(self, state_model):
        for qual in state_model["classes"]:
            assert qual.startswith("repro.")
            module = qual.rsplit(".", 1)[0]
            assert in_state_scope(module, tuple(state_model["scope"]))

    def test_declared_contracts_recorded(self, state_model):
        sim = state_model["classes"]["repro.sim.engine.Simulator"]
        assert sim["declared_state"] is not None
        assert "now" in sim["declared_state"]
        est = state_model["classes"]["repro.tcp.rtt.RttEstimator"]
        assert est["slots"] is not None and "srtt" in est["slots"]


class TestStateCli:
    def test_output_writes_the_document(self, tmp_path):
        out = tmp_path / "model.json"
        assert cli_main(["state", "-o", str(out), str(STATE_DIR)]) == 0
        data = json.loads(out.read_text())
        assert data["version"] == 1
        assert out.read_text().endswith("\n")


class TestDeterministicEmission:
    def test_state_model_double_write_identical(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        argv = ["state", "-o", str(out), str(STATE_DIR)]
        assert cli_main(argv) == 0
        first = out.read_bytes()
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert out.read_bytes() == first


class TestSlotsSatellite:
    HOT_CLASSES = (
        ("repro.sim.engine", "Timer"),
        ("repro.core.base", "Scheduler"),
        ("repro.core.ecf", "EcfScheduler"),
        ("repro.core.minrtt", "MinRttScheduler"),
        ("repro.tcp.rtt", "RttEstimator"),
        ("repro.tcp.cc.base", "CongestionController"),
        ("repro.net.path", "Path"),
        ("repro.sim.trace", "TraceRecorder"),
        ("repro.apps.http", "HttpSession"),
    )

    def test_hot_classes_have_no_instance_dict(self):
        import importlib

        for module_name, class_name in self.HOT_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            assert "__slots__" in cls.__dict__, f"{class_name} lost its __slots__"
            # Slot-restriction only holds if every class on the MRO is
            # slotted; one dictful base re-grows the per-instance dict.
            dictful = [
                base.__name__
                for base in cls.__mro__
                if base is not object and "__dict__" in vars(base)
            ]
            assert not dictful, f"{class_name} regrew __dict__ via {dictful}"

    def test_scheduler_still_constructs_and_counts(self):
        from repro.core.ecf import EcfScheduler

        scheduler = EcfScheduler()
        assert scheduler.decisions == 0 and scheduler.waits == 0
        with pytest.raises(AttributeError):
            scheduler.surprise_attribute = 1  # slots reject strays

    def test_rules_registered_in_front_end(self):
        for code in RULES_9XX:
            assert code in RULES
