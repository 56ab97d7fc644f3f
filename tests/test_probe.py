"""The probe seam (:mod:`repro.sim.probe`): layering, composition, nesting.

Three guarantees the refactor rests on:

* **layering** -- nothing under ``repro.sim|net|tcp|mptcp|core`` imports
  ``repro.analysis|obs|perf|experiments|service|apps`` (or the package
  root) at any scope, and ``repro.apps|workloads`` import none of the
  host-side modules the lint lets read the wall clock;
* **composition** -- any subset of the five tools armed together leaves
  results byte-identical, the event log record-identical, and the
  sanitizer ahead of every recorder;
* **nesting** -- each tool's windows nest and restore on their own role,
  whatever the other roles do in between.
"""

import hashlib
import heapq  # repro: noqa[RPR901] -- one test corrupts the queue on purpose
import itertools
import subprocess
import sys
from contextlib import ExitStack, contextmanager

import pytest

from repro.analysis import check, events, sanitize
from repro.analysis.flow import Project, extract_module
from repro.analysis.lint import WALL_CLOCK_ALLOWLIST
from repro.analysis.sanitize import SanitizerError
from repro.apps.bulk import BulkDownloadSpec, build_world, run_bulk
from repro.experiments.runner import StreamingRunConfig, run_streaming
from repro.experiments.spec import canonical_json
from repro.net.profiles import lte_config, wifi_config
from repro.obs import flight
from repro.perf import counters, profiler
from repro.sim import probe
from repro.sim.engine import Simulator, Timer

CORE = ("repro.sim", "repro.net", "repro.tcp", "repro.mptcp", "repro.core")
ABOVE = (
    "repro.analysis", "repro.obs", "repro.perf", "repro.experiments", "repro.service",
    "repro.apps",
)


#: The application and workload models run inside a simulation too, but
#: sit above the core (they register with ``repro.experiments.spec``).
#: What they must never reach is a module RPR101 exempts; derived from
#: the lint's allowlist so the two cannot drift.
DRIVEN = ("repro.apps", "repro.workloads")
CLOCK_READERS = tuple(
    "repro." + entry.rstrip("/").removesuffix(".py").replace("/", ".")
    for entry in WALL_CLOCK_ALLOWLIST
)

#: (importing packages, what they must not import)
FENCES = ((CORE, ABOVE), (DRIVEN, CLOCK_READERS))


def _under(module, packages):
    return any(module == p or module.startswith(p + ".") for p in packages)


def upward_imports(project):
    """``(module, imported module)`` edges that break the layering.

    A bare ``import repro.x.y`` binds (and is recorded as) the package
    root, which itself imports every layer, so the root counts too.
    """
    return [
        (module, target)
        for module, targets in sorted(project.import_graph().items())
        for packages, forbidden in FENCES
        if _under(module, packages)
        for target in sorted(targets)
        if target == "repro" or _under(target, forbidden)
    ]


class TestLayering:
    def test_core_imports_nothing_from_above(self, tree_run):
        project = tree_run.project
        assert any(_under(m, CORE) for m in project.by_module)
        assert any(_under(m, DRIVEN) for m in project.by_module)
        assert CLOCK_READERS == (
            "repro.experiments.exec", "repro.obs", "repro.perf", "repro.service",
        )
        assert upward_imports(project) == []

    def test_a_lazy_upward_import_is_caught(self):
        seeded = Project([
            extract_module(
                "def late():\n    from repro.analysis import events\n    return events\n",
                "src/repro/tcp/seeded.py",
            ),
            extract_module("import repro.perf.counters\n", "src/repro/net/seeded.py"),
            # apps may register with experiments.spec, never time a run.
            extract_module(
                "def register():\n"
                "    from repro.experiments.spec import register_experiment\n"
                "def late():\n"
                "    from repro.experiments.exec import ExperimentExecutor\n",
                "src/repro/apps/seeded.py",
            ),
            extract_module("from repro.obs import journal\n", "src/repro/workloads/seeded.py"),
            extract_module("", "src/repro/analysis/events.py"),
            extract_module("", "src/repro/experiments/spec.py"),
            extract_module("", "src/repro/experiments/exec.py"),
            extract_module("", "src/repro/obs/journal.py"),
            extract_module("", "src/repro/__init__.py"),
        ])
        assert upward_imports(seeded) == [
            ("repro.apps.seeded", "repro.experiments.exec"),
            ("repro.net.seeded", "repro"),
            ("repro.tcp.seeded", "repro.analysis.events"),
            ("repro.workloads.seeded", "repro.obs.journal"),
        ]


# ----------------------------------------------------------------------
# Composition: every subset of the five tools
# ----------------------------------------------------------------------

DASH = StreamingRunConfig(
    scheduler="ecf", wifi_mbps=0.3, lte_mbps=8.6, video_duration=20.0, seed=5
)
LOSSY_BULK = BulkDownloadSpec(
    scheduler="minrtt",
    path_configs=(wifi_config(8.6, loss_rate=0.03), lte_config(8.6, loss_rate=0.03)),
    size=200_000,
    seed=5,
)
WORKLOADS = {"dash": (run_streaming, DASH), "lossy_bulk": (run_bulk, LOSSY_BULK)}

#: Arming order matters only for flight vs events: ``flight()`` opens its
#: own (capped) ring, so the log under test is opened after it and wins.
TOOLS = ("sanitize", "flight", "perf", "profile", "events")


@contextmanager
def _sanitizer(on):
    """Force the sanitizer on/off for a block, whatever the ambient state
    (the suite also runs under REPRO_SANITIZE=1)."""
    was_on = sanitize.enabled()
    (sanitize.enable if on else sanitize.disable)()
    try:
        yield
    finally:
        (sanitize.enable if was_on else sanitize.disable)()


@contextmanager
def armed(tools):
    """Arm exactly ``tools``; yields the event log when one is among them."""
    with ExitStack() as stack:
        stack.enter_context(_sanitizer("sanitize" in tools))
        if "flight" in tools:
            stack.enter_context(flight.flight())
        if "perf" in tools:
            stack.enter_context(counters.collecting())
        if "profile" in tools:
            stack.enter_context(profiler.profiling())
        log = None
        if "events" in tools:
            log = stack.enter_context(events.recording())
        yield log


def _digest(result):
    return hashlib.sha256(canonical_json(result.to_dict()).encode()).hexdigest()


def _records(log):
    """The log as plain dicts with the process-unique uids replaced by
    their rank of first appearance, so two runs compare equal."""
    ranks = {}
    out = []
    for event in log:
        data = event.to_dict()
        for key, value in data.items():
            if key.endswith("_uid"):
                data[key] = ranks.setdefault(value, len(ranks))
        out.append(data)
    return out


@pytest.fixture(scope="module")
def references():
    """Per workload: the all-off digest and the log-only records."""
    out = {}
    for name, (runner, spec) in WORKLOADS.items():
        with armed(()):
            assert probe.ACTIVE is None
            digest = _digest(runner(spec))
        with armed(("events",)) as log:
            assert _digest(runner(spec)) == digest
        out[name] = (digest, _records(log))
    return out


SUBSETS = [
    subset
    for size in range(1, len(TOOLS) + 1)
    for subset in itertools.combinations(TOOLS, size)
]


class TestComposition:
    def test_all_31_subsets_are_covered(self):
        assert len(SUBSETS) == 31

    def test_the_workloads_reach_the_recovery_and_wait_paths(self, references):
        kinds = {r["kind"] for _digest_, records in references.values() for r in records}
        assert {"FastRetransmit", "EcfDecision", "Decision", "IdleReset"} <= kinds

    @pytest.mark.parametrize("tools", SUBSETS, ids="+".join)
    def test_subset_changes_neither_result_nor_log(self, tools, references):
        for name, (runner, spec) in WORKLOADS.items():
            digest, records = references[name]
            with armed(tools) as log:
                assert _digest(runner(spec)) == digest, name
            if log is not None:
                assert _records(log) == records, name

    def test_sanitizer_raises_before_the_dispatch_record(self):
        with armed(TOOLS[:-1]), events.recording(capture_dispatch=True) as log:
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.run()
            # Hand-push an event behind the clock (schedule() would refuse).
            stale = Timer(0.5, 10_000, lambda: None, ())
            heapq.heappush(sim._heap, (0.5, 0, 10_000, stale))  # repro: noqa[RPR901]
            with pytest.raises(SanitizerError, match="non-decreasing event dispatch"):
                sim.run()
        assert [e.seq for e in log.of_kind(events.Dispatch)] == [1]

    def test_sanitizer_raises_before_the_ack_record(self):
        corrupt_at = 0.15

        def acks_after(corrupt):
            world = build_world(BulkDownloadSpec(
                scheduler="minrtt", path_configs=(wifi_config(8.6),), size=300_000, seed=1,
            ))
            if corrupt:
                subflow = world.conn.subflows[0]
                world.sim.schedule(corrupt_at, setattr, subflow, "_in_flight", 10_000)
            with armed(TOOLS) as log:
                if corrupt:
                    with pytest.raises(SanitizerError, match="flight counter matches"):
                        world.sim.run(until=5.0)
                else:
                    world.sim.run(until=5.0)
            acks = log.of_kind(events.AckProcessed)
            assert any(e.t < corrupt_at for e in acks)
            return [e for e in acks if e.t >= corrupt_at]

        assert acks_after(corrupt=False)
        # The audit of the first ACK after the corruption raised, so that
        # ACK's record -- and every later one -- was never emitted.
        assert acks_after(corrupt=True) == []


# ----------------------------------------------------------------------
# The slot itself, nesting and restoring
# ----------------------------------------------------------------------


class TestSlot:
    def test_slot_is_none_when_nothing_is_armed(self):
        with armed(()):
            assert probe.ACTIVE is None
            with events.recording():
                assert probe.ACTIVE is not None
            assert probe.ACTIVE is None

    def test_only_bracketing_subscribers_leave_the_bare_loop(self):
        with armed(("events", "perf", "flight")):
            assert not probe.ACTIVE.brackets_dispatch
        for tools in (("sanitize",), ("profile",)):
            with armed(tools):
                assert probe.ACTIVE.brackets_dispatch
        with armed(()), events.recording(capture_dispatch=True):
            assert probe.ACTIVE.brackets_dispatch

    def test_a_sole_subscriber_is_called_without_indirection(self):
        with armed(()), counters.collecting() as collector:
            assert probe.ACTIVE.adopt == collector.adopt

    def test_unhandled_timed_sections_call_through(self):
        with armed(("events",)):
            assert probe.ACTIVE.timed("cc.update", max, 2, 3) == 3


class TestNesting:
    def test_inner_window_wins_and_outer_is_restored(self):
        windows = (
            (events.recording, events.current),
            (flight.flight, flight.current),
            (counters.collecting, counters.current),
            (profiler.profiling, profiler.current),
        )
        for open_window, current in windows:
            before = current()
            with open_window() as outer:
                assert current() is outer
                with open_window() as inner:
                    assert current() is inner
                assert current() is outer
            assert current() is before

    def test_windows_of_different_tools_restore_independently(self):
        with armed(()):
            with counters.collecting() as collector:
                with events.recording() as log:
                    with profiler.profiling() as prof:
                        assert counters.current() is collector
                        assert events.current() is log
                    assert profiler.current() is None
                    assert events.current() is log
                assert events.current() is None
                assert counters.current() is collector
            assert probe.ACTIVE is None

    def test_unscoped_sanitizer_toggles_survive_a_scoped_recording(self):
        with armed(()):
            with events.recording() as log:
                sanitize.enable()
                assert sanitize.enabled() and events.current() is log
            assert sanitize.enabled() and events.current() is None
            with events.recording() as log:
                sanitize.disable()
                assert not sanitize.enabled() and events.current() is log
            assert not sanitize.enabled() and events.current() is None
            assert probe.ACTIVE is None


def _sanitizer_armed_at_import() -> bool:
    """The sanitizer reads its switch once, at import: ask a child."""
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.analysis import sanitize; print(sanitize.enabled())"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return out.stdout.strip() == "True"


_SWITCHES = {
    check.ENV_VAR: check.check_enabled,
    counters.ENV_VAR: counters.perf_enabled,
    flight.ENV_VAR: flight.obs_enabled,
    sanitize.ENV_VAR: _sanitizer_armed_at_import,
}


@pytest.mark.parametrize("name", sorted(_SWITCHES))
@pytest.mark.parametrize(
    "value, on",
    [(None, False), ("", False), ("0", False), (" 0", False), ("1", True)],
)
def test_every_tool_switch_parses_the_same_way(monkeypatch, name, value, on):
    if value is None:
        monkeypatch.delenv(name, raising=False)
    else:
        monkeypatch.setenv(name, value)
    assert _SWITCHES[name]() is on
