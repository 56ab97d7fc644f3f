"""Tests for the whole-program analyzer (repro.analysis.flow + rules8xx).

Covers the seeded fixture package (``tests/data/flow``), the
interprocedural taint depth, noqa and baseline suppression, the
incremental summary cache (a warm run parses nothing), and SARIF
output against the structural validator.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    make_baseline,
    save_baseline,
)
from repro.analysis.flow import (
    Project,
    Violation,
    extract_module,
    module_name_for,
)
from repro.analysis.lint import RULES, run_lint
from repro.analysis.rules8xx import RULES_8XX
from repro.analysis.sarif import to_sarif, validate
from repro.cli import main as cli_main

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
        assert project.in_taint_scope("repro.sim.engine")
        # Non-repro files (fixtures, scripts) are always in scope.
        assert project.in_taint_scope("tests.data.flow.deep")


class TestBaseline:
    def test_round_trip(self, tmp_path):
        run = flow_run()
        document = make_baseline(run.all_violations)
        path = tmp_path / "baseline.json"
        save_baseline(document, path)
        fresh, suppressed = apply_baseline(
            run.all_violations, load_baseline(path)
        )
        assert fresh == []
        assert suppressed == len(run.all_violations)

    def test_new_finding_survives_baseline(self):
        run = flow_run()
        document = make_baseline(run.all_violations[:-1])
        fresh, _ = apply_baseline(run.all_violations, document)
        assert fresh == [run.all_violations[-1]]

    def test_fingerprint_is_line_independent(self):
        a = Violation("m.py", 3, 1, "RPR811", "msg", "fix")
        b = Violation("m.py", 99, 7, "RPR811", "msg", "fix")
        assert fingerprint(a) == fingerprint(b)

    def test_count_budget(self):
        twin = [
            Violation("m.py", 1, 1, "RPR841", "msg", "fix"),
            Violation("m.py", 2, 1, "RPR841", "msg", "fix"),
        ]
        document = make_baseline(twin)
        fresh, suppressed = apply_baseline(twin + twin[:1], document)
        assert suppressed == 2 and len(fresh) == 1

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "findings": {}}')
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)


class TestIncrementalCache:
    def test_warm_run_parses_nothing(self, tmp_path):
        cache = tmp_path / "cache.json"
        cold = flow_run(cache_path=cache)
        assert cold.stats.parsed == cold.stats.files > 0
        warm = flow_run(cache_path=cache)
        assert warm.stats.parsed == 0
        assert warm.stats.reused == warm.stats.files == cold.stats.files
        assert [v.format() for v in warm.violations] == [
            v.format() for v in cold.violations
        ]

    def test_edited_file_reparsed(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        cache = tmp_path / "cache.json"
        flow_run([src], cache_path=cache)
        src.write_text("def stamp(now):\n    return now\n")
        warm = flow_run([src], cache_path=cache)
        assert warm.stats.parsed == 1
        assert warm.violations == []

    def test_cache_invalidated_by_registry_change(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("s = SchedulerSpec.of('ecf')\n")
        cache = tmp_path / "cache.json"
        first = run_lint(
            [src], registries={"scheduler": {"ecf"}}, cache_path=cache
        )
        assert first.violations == []
        second = run_lint(
            [src], registries={"scheduler": {"minrtt"}}, cache_path=cache
        )
        assert second.stats.parsed == 1  # signature changed, no stale reuse
        assert [v.code for v in second.violations] == ["RPR501"]


class TestSarif:
    def test_output_validates(self, fixture_run):
        document = to_sarif(fixture_run.violations, RULES)
        assert validate(document) == []

    def test_json_round_trip(self, fixture_run):
        document = json.loads(json.dumps(to_sarif(fixture_run.violations, RULES)))
        assert validate(document) == []
        results = document["runs"][0]["results"]
        assert len(results) == len(fixture_run.violations)
        rules = document["runs"][0]["tool"]["driver"]["rules"]
        assert {r["id"] for r in rules} == set(RULES)
        for result in results:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_validator_catches_problems(self):
        assert validate({"version": "2.1.0", "runs": []})
        bad_result = to_sarif([], RULES)
        bad_result["runs"][0]["results"].append({"ruleId": "NOPE"})
        assert any("NOPE" in p for p in validate(bad_result))


class TestCliWiring:
    def test_sarif_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "lint.sarif"
        code = cli_main(
            ["lint", str(FLOW_DIR), "--sarif", str(out), "--no-cache"]
        )
        assert code == 1  # the fixtures are violations by design
        document = json.loads(out.read_text())
        assert validate(document) == []
        assert document["runs"][0]["results"]

    def test_baseline_flag_gates(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            cli_main(
                ["lint", str(FLOW_DIR), "--update-baseline",
                 "--baseline", str(baseline), "--no-cache"]
            )
            == 0
        )
        assert baseline.exists()
        assert (
            cli_main(
                ["lint", str(FLOW_DIR), "--baseline", str(baseline), "--no-cache"]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "baselined" in err

    def test_changed_with_no_changed_files(self, tmp_path, capsys, monkeypatch):
        # In a scratch git-less directory every git call fails, so the
        # changed set is empty and lint exits 0 without analyzing.
        monkeypatch.chdir(tmp_path)
        assert cli_main(["lint", str(FLOW_DIR), "--changed", "--no-cache"]) == 0
        assert "no changed python files" in capsys.readouterr().err
