"""Tests for the deterministic sim-profiler (repro.perf.profiler).

The two load-bearing guarantees:

* **zero-cost off** -- with no profiler armed (the default) the engine
  takes its bare loop and no profiler code runs;
* **byte-identity** -- profiling must never perturb simulated results:
  the same spec run with and without the profiler produces identical
  result dictionaries (the golden-digest suite in ``test_perf.py``
  guards the same property at sha256 granularity).
"""

import pytest

from repro.apps.bulk import BulkDownloadSpec, run_bulk
from repro.net.profiles import lte_config, wifi_config
from repro.perf import profiler as _profiler
from repro.perf.profiler import SimProfiler, profiling


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
