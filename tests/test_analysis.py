"""Tests for the static lint and the runtime sanitizer (repro.analysis)."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis import sanitize
from repro.analysis.lint import RULES, lint_paths, lint_source, suppressed_codes
from repro.analysis.sanitize import Checks, SanitizerError
from repro.cli import main as cli_main
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from tests.conftest import build_connection, drain

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).parent / "data" / "lint_bad.py"

#: Registries for rule tests: deliberately tiny so RPR501 tests do not
#: depend on what the real registries happen to contain.
TEST_REGISTRIES = {
    "scheduler": {"ecf", "minrtt"},
    "congestion_control": {"cubic"},
    "bandwidth": {"constant"},
    "experiment": {"streaming"},
}


def codes_of(source: str, **kwargs):
    kwargs.setdefault("registries", TEST_REGISTRIES)
    return [v.code for v in lint_source(source, **kwargs)]


class TestLintRules:
    """Each rule fires on a bad snippet and stays silent on a good one."""

    def test_rpr101_wall_clock(self):
        assert codes_of("import time\nt = time.time()\n") == ["RPR101"]
        assert codes_of("t = sim.now\n") == []

    def test_rpr101_datetime(self):
        assert codes_of("import datetime\nd = datetime.datetime.now()\n") == ["RPR101"]

    @pytest.mark.parametrize("path, flagged", [
        ("src/repro/experiments/exec.py", False),
        ("src/repro/obs/journal.py", False),
        ("src/repro/perf/counters.py", False),
        ("src/repro/service/store.py", False),
        ("src/repro/experiments/grid.py", True),
        ("src/repro/mptcp/connection.py", True),
    ])
    def test_rpr101_allowlisted_in_host_side_code_only(self, path, flagged):
        source = "import time\nt = time.monotonic()\n"
        assert codes_of(source, path=path) == (["RPR101"] if flagged else [])

    def test_rpr101_allowlist_ignores_where_the_checkout_lives(self, tmp_path):
        # The allowlist names paths *inside* the repro package: a clone
        # that happens to sit under a directory called repro/obs keeps
        # the rule for the whole tree.
        checkout = tmp_path / "repro" / "obs" / "x" / "src" / "repro"
        source = "import time\nt = time.time()\n"
        for inside, flagged in (("tcp/seeded.py", True), ("obs/journal.py", False)):
            path = checkout / inside
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
            codes = [v.code for v in lint_paths([path])]
            assert codes == (["RPR101"] if flagged else []), inside

    @pytest.mark.parametrize("source, code", [
        ("from time import perf_counter\nt = perf_counter()\n", "RPR101"),
        ("import time as t\nnow = t.monotonic()\n", "RPR101"),
        ("from datetime import datetime as dt\nd = dt.now()\n", "RPR101"),
        ("from random import random\nx = random()\n", "RPR102"),
        ("import random as r\nx = r.random()\n", "RPR102"),
        ("from random import Random\nrng = Random(3)\n", "RPR103"),
    ], ids=["from-time", "time-as", "datetime-as", "from-random", "random-as",
            "from-random-Random"])
    def test_rpr10x_resolve_the_call_through_its_imports(self, source, code):
        assert codes_of(source) == [code]
        # A binding made at function scope counts too.
        indented = "def f():\n" + "".join(f"    {line}\n" for line in source.splitlines())
        assert codes_of(indented) == [code]

    def test_rpr102_module_level_random(self):
        assert codes_of("import random\nx = random.random()\n") == ["RPR102"]
        assert codes_of("x = rng.random()\n") == []

    def test_rpr103_adhoc_random_construction(self):
        assert codes_of("import random\nr = random.Random(42)\n") == ["RPR103"]
        good = "from repro.sim.rng import RngRegistry\nr = RngRegistry(42).stream('x')\n"
        assert codes_of(good) == []

    def test_rpr103_allowlisted_in_rng_module(self):
        source = "import random\nr = random.Random(42)\n"
        assert lint_source(
            source, path="src/repro/sim/rng.py", registries=TEST_REGISTRIES
        ) == []

    def test_rpr201_mutable_default(self):
        assert codes_of("def f(x, acc=[]):\n    return acc\n") == ["RPR201"]
        assert codes_of("def f(x, acc={}):\n    return acc\n") == ["RPR201"]
        assert codes_of("def f(x, acc=None):\n    return acc or []\n") == []

    def test_rpr301_float_eq_on_timestamp(self):
        assert codes_of("done = now == deadline\n") == ["RPR301"]
        assert codes_of("done = packet.arrival_time != 0.0\n") == ["RPR301"]
        assert codes_of("done = now >= deadline\n") == []
        assert codes_of("done = count == total\n") == []

    def test_rpr301_non_numeric_literal_ok(self):
        # Comparing a timestamp-named field against None/str is not float
        # equality and must pass.
        assert codes_of("if completed_at == None:\n    pass\n") == []

    def test_rpr401_unfrozen_spec(self):
        bad = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class FooSpec:\n"
            "    x: int = 0\n"
        )
        assert codes_of(bad) == ["RPR401"]
        good = bad.replace("@dataclass", "@dataclass(frozen=True)")
        assert codes_of(good) == []

    def test_rpr401_kind_classvar_marks_spec(self):
        bad = (
            "from dataclasses import dataclass\n"
            "from typing import ClassVar\n"
            "@dataclass\n"
            "class Campaign:\n"
            "    kind: ClassVar[str] = 'streaming'\n"
            "    x: int = 0\n"
        )
        assert codes_of(bad) == ["RPR401"]

    def test_rpr401_non_spec_dataclass_ignored(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Mutable:\n"
            "    x: int = 0\n"
        )
        assert codes_of(source) == []

    def test_rpr402_live_object_field(self):
        bad = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class FooSpec:\n"
            "    sim: Simulator = None\n"
        )
        assert codes_of(bad) == ["RPR402"]

    def test_rpr402_string_forward_reference(self):
        bad = (
            "from dataclasses import dataclass\n"
            "from typing import Optional\n"
            "@dataclass(frozen=True)\n"
            "class FooSpec:\n"
            "    link: Optional['Link'] = None\n"
        )
        assert codes_of(bad) == ["RPR402"]

    def test_rpr402_plain_fields_ok(self):
        good = (
            "from dataclasses import dataclass\n"
            "from typing import Tuple\n"
            "@dataclass(frozen=True)\n"
            "class FooSpec:\n"
            "    rates: Tuple[float, ...] = ()\n"
            "    name: str = 'x'\n"
        )
        assert codes_of(good) == []

    def test_rpr501_unknown_kind_in_call(self):
        assert codes_of("s = SchedulerSpec.of('warpdrive')\n") == ["RPR501"]
        assert codes_of("s = SchedulerSpec.of('ecf')\n") == []

    def test_rpr501_unknown_kind_in_spec_default(self):
        bad = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class FooSpec:\n"
            "    scheduler: str = 'warpdrive'\n"
        )
        assert codes_of(bad) == ["RPR501"]
        assert codes_of(bad.replace("warpdrive", "minrtt")) == []

    def test_rpr901_heapq_import(self):
        assert codes_of("import heapq\n") == ["RPR901"]
        assert codes_of("from heapq import heappush\n") == ["RPR901"]

    def test_rpr901_heap_attribute_access(self):
        assert codes_of("sim._heap.append(entry)\n") == ["RPR901"]
        assert codes_of("sim.schedule(0.5, callback)\n") == []

    def test_rpr901_allowlisted_in_engine(self):
        source = "import heapq\nheapq.heappush(self._heap, entry)\n"
        assert lint_source(
            source, path="src/repro/sim/engine.py", registries=TEST_REGISTRIES
        ) == []

    def test_rpr501_case_insensitive(self):
        assert codes_of("s = SchedulerSpec.of('ECF')\n") == []

    def test_rpr701_cross_package_private_name(self):
        bad = "from repro.core.registry import _FACTORIES\n"
        violations = lint_source(
            bad, path="src/repro/experiments/exec.py", registries=TEST_REGISTRIES
        )
        assert [v.code for v in violations] == ["RPR701"]
        assert "_FACTORIES" in violations[0].message

    def test_rpr701_same_package_is_fine(self):
        source = "from repro.core.registry import _FACTORIES\n"
        assert lint_source(
            source, path="src/repro/core/spec.py", registries=TEST_REGISTRIES
        ) == []

    def test_rpr701_public_import_is_fine(self):
        source = "from repro.core.registry import registered_schedulers\n"
        assert lint_source(
            source, path="src/repro/experiments/exec.py", registries=TEST_REGISTRIES
        ) == []

    def test_rpr701_private_module_path(self):
        bad = "import repro.core._cache\n"
        violations = lint_source(
            bad, path="src/repro/experiments/exec.py", registries=TEST_REGISTRIES
        )
        assert [v.code for v in violations] == ["RPR701"]

    def test_rpr701_applies_outside_the_package(self):
        # External consumers (tests, scripts) get the same protection: for
        # them every underscore name in repro is private.
        assert codes_of("from repro.core.registry import _FACTORIES\n") == ["RPR701"]

    def test_rpr701_relative_imports_exempt(self):
        source = "from ._registry import _FACTORIES\n"
        assert lint_source(
            source, path="src/repro/core/spec.py", registries=TEST_REGISTRIES
        ) == []


class TestNoqaAndSelect:
    def test_blanket_noqa(self):
        source = "import time\nt = time.time()  # repro: noqa\n"
        assert codes_of(source) == []

    def test_coded_noqa(self):
        source = "import time\nt = time.time()  # repro: noqa[RPR101]\n"
        assert codes_of(source) == []

    def test_wrong_code_does_not_suppress(self):
        source = "import time\nt = time.time()  # repro: noqa[RPR301]\n"
        assert codes_of(source) == ["RPR101"]

    def test_select_restricts(self):
        source = "import time, random\nt = time.time()\nx = random.random()\n"
        assert codes_of(source) == ["RPR101", "RPR102"]
        assert codes_of(source, select=["RPR102"]) == ["RPR102"]

    def test_every_suppressed_code_is_a_live_rule(self):
        # apply_noqa accepts any code without a word, so a retired or
        # typoed one would linger as a comment that suppresses nothing.
        files = sorted((REPO_ROOT / "src").rglob("*.py")) + sorted(
            (REPO_ROOT / "tests").glob("*.py")
        )
        stale = [
            f"{path.relative_to(REPO_ROOT)}:{number}: {code}"
            for path in files
            for number, line in enumerate(path.read_text().splitlines(), 1)
            for code in sorted(suppressed_codes(line) or ())
            if code not in RULES
        ]
        assert stale == []

    def test_select_unknown_code_raises(self):
        with pytest.raises(ValueError):
            lint_source("x = 1\n", select=["RPR999"], registries=TEST_REGISTRIES)

    def test_violation_format_mentions_fixit(self):
        violations = lint_source(
            "import time\nt = time.time()\n", path="mod.py", registries=TEST_REGISTRIES
        )
        text = violations[0].format()
        assert text.startswith("mod.py:2:")
        assert "RPR101" in text
        assert RULES["RPR101"][1] in text


class TestLintCli:
    def test_fixture_trips_every_rule(self):
        codes = {v.code for v in lint_paths([FIXTURE])}
        assert codes == set(RULES)

    def test_cli_nonzero_on_fixture(self, capsys):
        assert cli_main(["lint", str(FIXTURE)]) == 1
        out = capsys.readouterr().out
        assert "RPR101" in out

    def test_cli_zero_on_package(self):
        # Mirrors the CI gate: the package lints clean.
        assert cli_main(["lint", str(REPO_ROOT / "src" / "repro")]) == 0

    def test_cli_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([str(REPO_ROOT / "does-not-exist")])

    def test_rule_catalog_is_pinned(self):
        # Adding or dropping a rule has to edit this list on purpose, and
        # a rule leaves only with an entry in the evidence ledger of
        # docs/analysis.md: what it reported, on which tree, and the
        # gate that covers it from then on.
        assert set(RULES) == {
            "RPR101", "RPR102", "RPR103", "RPR201", "RPR301", "RPR401",
            "RPR402", "RPR501", "RPR601", "RPR701", "RPR901",
        }

    def test_the_ledger_names_every_rule_and_retired_codes_are_unknown(self, capsys):
        # docs/analysis.md is the audit trail: one ledger row per live
        # rule, one "Retired" row per deleted one -- and a retired code
        # is gone from the front end, not parked behind --select.
        sections = (REPO_ROOT / "docs" / "analysis.md").read_text().split("\n## ")
        rows = {
            section.splitlines()[0]: re.findall(r"^\| (RPR\d{3}) \|", section, re.M)
            for section in sections
        }
        retired = rows["Retired"]
        assert retired
        for code in retired:
            assert cli_main(["lint", "--select", code]) == 2, code
            assert capsys.readouterr().err == f"lint: unknown rule code(s): ['{code}']\n"
        assert sorted(rows["The evidence ledger"]) == sorted(RULES)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lint", "{tmp}/broken.py"], "lint: {tmp}/broken.py:1:7: syntax error"),
            (["lint", "--select", "RPR000"], "lint: unknown rule code(s): ['RPR000']"),
            (["lint", "{tmp}/nope"], "lint: not a python file or directory: {tmp}/nope"),
            (["trace", "export", "{tmp}/nope.jsonl"],
             "trace export: [Errno 2] No such file or directory: '{tmp}/nope.jsonl'"),
            (["trace", "export", "{tmp}/broken.py"],
             "trace export: Expecting value: line 1 column 1 (char 0)"),
            (["trace", "validate", "{tmp}/nope.json"],
             "trace validate: [Errno 2] No such file or directory: '{tmp}/nope.json'"),
            (["trace", "validate", "{tmp}/broken.py"],
             "trace validate: Expecting value: line 1 column 1 (char 0)"),
            (["metrics", "validate", "{tmp}/nope.txt"],
             "metrics validate: [Errno 2] No such file or directory: '{tmp}/nope.txt'"),
        ],
        ids=["lint-syntax", "unknown-rule", "lint-missing", "export-missing",
             "export-not-json", "validate-missing", "validate-not-json", "metrics-missing"],
    )
    def test_bad_outside_input_is_one_stderr_line_and_exit_2(
        self, tmp_path, capsys, argv, message
    ):
        (tmp_path / "broken.py").write_text("def f(:\n    pass\n")
        assert cli_main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message.replace("{tmp}", str(tmp_path)) + "\n"

    def test_lint_keeps_nothing_on_disk(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["lint"]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []


@pytest.fixture
def sanitized():
    """Sanitizer on for one test, restored afterwards."""
    was_on = sanitize.enabled()
    sanitize.enable()
    yield
    if not was_on:
        sanitize.disable()


class TestSanitizer:
    def test_disabled_by_default(self):
        # The suite itself may run under REPRO_SANITIZE=1; only assert
        # the toggle works, not the ambient state.
        was_on = sanitize.enabled()
        sanitize.disable()
        assert not sanitize.enabled()
        sanitize.enable()
        assert sanitize.enabled()
        if not was_on:
            sanitize.disable()

    def test_clean_run_passes(self, sanitized):
        sim = Simulator()
        conn = build_connection(sim)
        conn.write(200_000)
        drain(sim)
        assert conn.delivered_bytes == 200_000

    def test_cwnd_collapse_detected(self, sanitized):
        sim = Simulator()
        conn = build_connection(sim)
        subflow = conn.subflows[0]
        subflow.cwnd = 0.1
        with pytest.raises(SanitizerError, match="cwnd >= 1 MSS"):
            Checks().audit_cwnd(subflow)

    def test_ssthresh_zero_detected(self, sanitized):
        sim = Simulator()
        conn = build_connection(sim)
        subflow = conn.subflows[0]
        subflow.ssthresh = 0.0
        with pytest.raises(SanitizerError, match="ssthresh > 0"):
            Checks().audit_cwnd(subflow)

    def test_acked_segment_at_una_detected(self):
        """``handle_ack`` advances una only for an ACK at una, which
        holds because the segment at una is never acked between ACKs."""
        sim = Simulator()
        conn = build_connection(sim)
        conn.write(100_000)
        subflow = conn.subflows[0]
        Checks().audit_subflow(subflow)
        subflow._outstanding[subflow.una].acked = True
        with pytest.raises(SanitizerError, match="the segment at una is unacked"):
            Checks().audit_subflow(subflow)

    def test_corruption_caught_mid_simulation(self, sanitized):
        sim = Simulator()
        conn = build_connection(sim)
        conn.write(500_000)
        # ssthresh=0 stays corrupt until the next ACK audit (a corrupted
        # cwnd would self-heal: the controller raises it before the check).
        sim.schedule(0.05, lambda: setattr(conn.subflows[0], "ssthresh", 0.0))
        with pytest.raises(SanitizerError):
            drain(sim)

    @pytest.mark.parametrize(
        "field, shift, invariant",
        [
            ("_queued_bytes", 100, "queue byte conservation"),
            ("_waiting", 1, "queue byte conservation"),
            ("_free_at", -3.0, "busy until the last admitted packet finishes"),
        ],
    )
    def test_link_counter_drift_detected(self, field, shift, invariant):
        from repro.net.link import Link
        from repro.net.packet import Packet

        sim = Simulator()
        link = Link(sim, 8000.0, 0.5, queue_bytes=10_000)
        for seq in range(3):  # one transmitting, two waiting
            link.send(Packet(size=1000, seq=seq), lambda packet: None)
        sim.run(until=1.0)  # 0 finished at 1.0: the counters lag the FIFO
        Checks().audit_link(link)
        setattr(link, field, getattr(link, field) + shift)
        with pytest.raises(SanitizerError, match=invariant):
            Checks().audit_link(link)

    def test_event_dispatch_violation(self, sanitized):
        import heapq  # repro: noqa[RPR901] -- deliberately corrupting the queue

        from repro.sim.engine import Timer

        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        # Hand-push a stale event behind the clock; schedule() itself
        # would legitimately refuse this, which is the point of the check.
        timer = Timer(0.5, 10_000, lambda: None, ())
        heapq.heappush(sim._heap, (0.5, 0, 10_000, timer))  # repro: noqa[RPR901]
        with pytest.raises(SanitizerError, match="non-decreasing event dispatch"):
            sim.run()

    def test_off_means_no_hooks(self):
        was_on = sanitize.enabled()
        sanitize.disable()
        try:
            assert not sanitize.enabled()
            sim = Simulator()
            conn = build_connection(sim)
            conn.subflows[0].cwnd = 0.1  # corrupt; nothing should notice
            conn.subflows[0].cwnd = 10.0
        finally:
            if was_on:
                sanitize.enable()

    def test_error_is_assertion_error(self):
        sim = Simulator()
        sim.run(until=2.0)
        with pytest.raises(AssertionError):
            Checks().event_begin(sim, 1.0, None)


class TestRngRegistryFork:
    def test_fork_streams_independent_of_parent(self):
        parent = RngRegistry(seed=7)
        child = parent.fork("worker")
        parent_draws = [parent.stream("loss").random() for _ in range(4)]
        child_draws = [child.stream("loss").random() for _ in range(4)]
        assert parent_draws != child_draws

    def test_fork_unaffected_by_parent_consumption(self):
        a = RngRegistry(seed=7)
        a.stream("loss").random()  # consume from the parent first
        b = RngRegistry(seed=7)
        assert (
            a.fork("worker").stream("loss").random()
            == b.fork("worker").stream("loss").random()
        )

    def test_fork_names_distinct(self):
        registry = RngRegistry(seed=7)
        assert (
            registry.fork("alpha").stream("x").random()
            != registry.fork("beta").stream("x").random()
        )
