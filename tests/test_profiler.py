"""Tests for the deterministic sim-profiler (repro.perf.profiler).

The two load-bearing guarantees:

* **zero-cost off** -- with no profiler armed (the default) the engine
  takes its bare loop and no profiler code runs;
* **byte-identity** -- profiling must never perturb simulated results:
  the same spec run with and without the profiler produces identical
  result dictionaries (the golden-digest suite in ``test_perf.py``
  guards the same property at sha256 granularity).
"""

import itertools
from types import SimpleNamespace

import pytest

from repro.apps.bulk import BulkDownloadSpec, run_bulk
from repro.net.profiles import lte_config, wifi_config
from repro.perf import profiler as _profiler
from repro.perf.profiler import SimProfiler, profiling
from repro.sim.engine import Simulator


def bulk_spec(seed=0, size=96 * 1024):
    return BulkDownloadSpec(
        scheduler="ecf",
        path_configs=(wifi_config(2.0), lte_config(8.6)),
        size=size,
        seed=seed,
    )


class TestZeroCostOff:
    def test_profiler_global_defaults_to_none(self):
        assert _profiler.current() is None

    def test_runs_fine_with_profiler_off(self):
        result = run_bulk(bulk_spec())
        assert result.size == 96 * 1024
        assert result.completion_time > 0


class TestByteIdentity:
    def test_profiled_run_is_bit_identical(self):
        plain = run_bulk(bulk_spec(seed=3))
        with profiling():
            profiled = run_bulk(bulk_spec(seed=3))
        assert profiled.to_dict() == plain.to_dict()

    def test_profiled_run_matches_across_schedulers(self):
        for scheduler in ("ecf", "minrtt"):
            spec = BulkDownloadSpec(
                scheduler=scheduler,
                path_configs=(wifi_config(1.0), lte_config(8.6)),
                size=64 * 1024,
                seed=1,
            )
            plain = run_bulk(spec)
            with profiling():
                profiled = run_bulk(spec)
            assert profiled.to_dict() == plain.to_dict()


class TestAttribution:
    def test_components_and_hooks_observed(self):
        with profiling() as prof:
            run_bulk(bulk_spec())
        report = prof.report()
        assert report["runs"] >= 1
        assert report["sims_adopted"] >= 1
        assert report["run_wall_s"] > 0
        components = report["components"]
        for expected in ("engine.dispatch", "link.delivery"):
            assert expected in components, f"missing {expected}"
            assert components[expected]["calls"] > 0
        hot_spots = report["hot_spots"]
        for hook in ("scheduler.decision", "cc.update", "receiver.reassembly"):
            matching = [p for p in hot_spots if p.endswith(";" + hook)]
            assert matching, f"no hot-spot path for {hook}"
            assert sum(hot_spots[p]["calls"] for p in matching) > 0

    def test_hot_spots_nest_under_components(self):
        with profiling() as prof:
            run_bulk(bulk_spec())
        hot_spots = prof.report()["hot_spots"]
        assert any("scheduler.decision" in path for path in hot_spots)
        # Nested hooks are attributed beneath the component that was
        # dispatching when they fired, giving engine;<parent>;<hook> paths.
        assert any(path.count(";") >= 2 for path in hot_spots)

    def test_classify_uses_module_prefixes(self):
        prof = SimProfiler()

        class FakeLink:
            __module__ = "repro.net.link"

            def deliver(self):
                pass

        class Elsewhere:
            __module__ = "somewhere.else"

            def tick(self):
                pass

        assert prof.classify(FakeLink().deliver) == "link.delivery"
        assert prof.classify(Elsewhere().tick) == "other"


class TestCollapsed:
    def test_collapsed_stack_format(self):
        with profiling() as prof:
            run_bulk(bulk_spec())
        text = prof.collapsed()
        assert text
        for line in text.splitlines():
            path, weight = line.rsplit(" ", 1)
            assert path.split(";")[0] in ("engine", "outside")
            assert int(weight) > 0

    def test_empty_profiler_collapses_to_nothing(self):
        assert SimProfiler().collapsed() == ""


#: One scripted clock step: binary-exact, so every pinned total is too.
TICK = 2.0 ** -10


def scripted_profile(monkeypatch):
    """A fixed dispatch/timed/run sequence under a scripted host clock."""
    steps = itertools.cycle((3, 1, 4, 1, 5, 9, 2, 6))
    clock = [0.0]

    def perf_counter():
        clock[0] += next(steps) * TICK
        return clock[0]

    monkeypatch.setattr(_profiler.time, "perf_counter", perf_counter)

    def owned(module):
        cls = type("Owner", (), {"__module__": module, "fire": lambda self: None})
        return SimpleNamespace(callback=cls().fire)

    def bare():
        pass

    bare.__module__ = "somewhere.else"

    prof = SimProfiler()
    sim = Simulator()
    prof.adopt(sim)
    prof.adopt(object())
    prof.timed("spec.hash", len, ())  # outside any dispatch
    prof.run_begin(sim)
    for timer, hooks in (
        (owned("repro.net.link"), ("receiver.reassembly",)),
        (owned("repro.tcp.subflow"), ("scheduler.decision", "cc.update")),
        (owned("repro.net.link"), ()),
        (SimpleNamespace(callback=bare), ()),
        (owned("repro.mptcp.connection"), ("scheduler.decision",)),
    ):
        prof.event_begin(sim, 0.0, timer)
        for hook in hooks:
            prof.timed(hook, len, ())
        prof.event_end(sim)
    prof.run_begin(sim)  # a nested run
    prof.event_begin(sim, 1.0, owned("repro.apps.bulk"))
    prof.event_end(sim)
    prof.run_end(sim)
    prof.run_end(sim)
    return prof


def calls_wall(calls, ticks):
    return {"calls": calls, "wall_s": ticks * TICK}


class TestScriptedReadout:
    """``report()`` and ``collapsed()`` pinned on a scripted clock: the
    per-component totals are read off the one path table."""

    def test_report_is_pinned(self, monkeypatch):
        assert scripted_profile(monkeypatch).report() == {
            "runs": 2,
            "run_wall_s": 100 * TICK,
            "sims_adopted": 1,
            "components": {
                "app": calls_wall(1, 6),
                "engine.dispatch": calls_wall(2, 43),
                "link.delivery": calls_wall(2, 18),
                "mptcp.connection": calls_wall(1, 10),
                "other": calls_wall(1, 3),
                "tcp.subflow": calls_wall(1, 14),
            },
            "hot_spots": {
                "engine;link.delivery;receiver.reassembly": calls_wall(1, 9),
                "engine;mptcp.connection;scheduler.decision": calls_wall(1, 1),
                "engine;tcp.subflow;cc.update": calls_wall(1, 1),
                "engine;tcp.subflow;scheduler.decision": calls_wall(1, 1),
                "outside;spec.hash": calls_wall(1, 1),
            },
        }

    def test_collapsed_is_pinned(self, monkeypatch):
        assert scripted_profile(monkeypatch).collapsed() == (
            "engine;app 5859\n"
            "engine;engine.dispatch 41992\n"
            "engine;link.delivery 8789\n"
            "engine;link.delivery;receiver.reassembly 8789\n"
            "engine;mptcp.connection 8789\n"
            "engine;mptcp.connection;scheduler.decision 977\n"
            "engine;other 2930\n"
            "engine;tcp.subflow 11719\n"
            "engine;tcp.subflow;cc.update 977\n"
            "engine;tcp.subflow;scheduler.decision 977\n"
            "outside;spec.hash 977\n"
        )


class TestProfilingContext:
    def test_restores_previous_global(self):
        with profiling() as outer:
            with profiling() as inner:
                assert _profiler.current() is inner
                assert inner is not outer
            assert _profiler.current() is outer
        assert _profiler.current() is None

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with profiling():
                raise RuntimeError("boom")
        assert _profiler.current() is None
