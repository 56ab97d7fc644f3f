"""Tests for the perf layer: counters, executor integration, and the
byte-identity guarantee over the hot-path optimizations."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.apps.bulk import BulkDownloadSpec, run_bulk
from repro.experiments.runner import StreamingRunConfig, run_streaming
from repro.experiments.spec import attach_perf, canonical_json, spec_to_dict
from repro.mptcp.connection import ConnectionConfig
from repro.net.profiles import lte_config, wifi_config
from repro.perf import counters as perf
from repro.sim.engine import Simulator
from repro.workloads.web import WebBrowsingSpec, cnn_like_page, run_web

SMALL_BULK = BulkDownloadSpec(
    scheduler="ecf",
    path_configs=(wifi_config(1.0), lte_config(8.6)),
    size=128_000,
    seed=1,
)


class TestCollector:
    def test_no_collection_by_default(self):
        assert perf.current() is None
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()  # nothing to assert beyond "untouched hot path works"

    def test_collecting_adopts_simulators_built_inside(self):
        with perf.collecting() as collector:
            sim = Simulator()
            for i in range(5):
                sim.schedule(1.0 + i, lambda: None)
            sim.run()
        snap = collector.snapshot()
        assert snap.events_dispatched == 5
        assert snap.timers_scheduled == 5
        assert snap.sim_time == 5.0

    def test_objects_outside_window_not_adopted(self):
        sim = Simulator()  # built before the window opens
        with perf.collecting() as collector:
            sim.schedule(1.0, lambda: None)
            sim.run()
        assert collector.snapshot().events_dispatched == 0

    def test_windows_nest_and_restore(self):
        with perf.collecting() as outer:
            with perf.collecting() as inner:
                sim = Simulator()
                sim.schedule(1.0, lambda: None)
                sim.run()
            assert perf.current() is outer
        assert perf.current() is None
        assert inner.snapshot().events_dispatched == 1
        assert outer.snapshot().events_dispatched == 0

    def test_full_run_populates_every_counter_family(self):
        result, record = perf.measure(run_bulk, SMALL_BULK)
        snap = record.counters
        assert snap.events_dispatched > 0
        assert snap.timers_scheduled >= snap.events_dispatched
        assert snap.packets_in > 0
        assert snap.packets_delivered > 0
        assert snap.bytes_delivered >= SMALL_BULK.size
        assert snap.scheduler_decisions > 0
        assert record.events == snap.events_dispatched
        assert record.wall_s > 0
        assert record.sim_s == snap.sim_time > 0
        assert result.completion_time > 0

    def test_counters_are_deterministic(self):
        _, first = perf.measure(run_bulk, SMALL_BULK)
        _, second = perf.measure(run_bulk, SMALL_BULK)
        assert first.counters == second.counters

    def test_record_to_dict_shape(self):
        _, record = perf.measure(run_bulk, SMALL_BULK)
        data = record.to_dict()
        assert set(data) == {"wall_s", "sim_s", "events", "events_per_wall_s", "counters"}
        assert data["events"] == record.events
        json.dumps(data)  # JSON-serializable throughout


class TestPerfEnabled:
    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv(perf.ENV_VAR, raising=False)
        assert not perf.perf_enabled()
        monkeypatch.setenv(perf.ENV_VAR, "0")
        assert not perf.perf_enabled()
        monkeypatch.setenv(perf.ENV_VAR, "1")
        assert perf.perf_enabled()


class TestAttachPerf:
    def test_attach_and_wire_round_trip(self):
        result, record = perf.measure(run_bulk, SMALL_BULK)
        attach_perf(result, record.to_dict())
        data = result.to_dict()
        assert data["perf"]["events"] == record.events
        rebuilt = type(result).from_dict(data)
        assert rebuilt.perf == data["perf"]

    def test_wire_format_unchanged_without_perf(self):
        result = run_bulk(SMALL_BULK)
        assert "perf" not in result.to_dict()

    def test_rejects_objects_without_perf_field(self):
        with pytest.raises(TypeError):
            attach_perf(object(), {"events": 1})


class TestExecutorIntegration:
    def test_repro_perf_attaches_record(self, monkeypatch, tmp_path):
        from repro.experiments.exec import ExperimentExecutor

        monkeypatch.setenv(perf.ENV_VAR, "1")
        [result] = ExperimentExecutor(cache_dir=tmp_path).run([SMALL_BULK])
        assert result.perf is not None
        assert result.perf["events"] > 0
        assert result.perf["counters"]["packets_delivered"] > 0

    def test_cache_entries_stay_perf_free(self, monkeypatch, tmp_path):
        from repro.experiments.exec import ExperimentExecutor

        monkeypatch.setenv(perf.ENV_VAR, "1")
        [first] = ExperimentExecutor(cache_dir=tmp_path).run([SMALL_BULK])
        assert first.perf is not None
        # The hit must rebuild from a deterministic (perf-free) entry.
        [second] = ExperimentExecutor(cache_dir=tmp_path).run([SMALL_BULK])
        assert second.perf is None
        assert canonical_json(second.to_dict()) == canonical_json(
            run_bulk(SMALL_BULK).to_dict()
        )

    def test_disabled_by_default(self, monkeypatch, tmp_path):
        from repro.experiments.exec import ExperimentExecutor

        monkeypatch.delenv(perf.ENV_VAR, raising=False)
        [result] = ExperimentExecutor(cache_dir=tmp_path).run([SMALL_BULK])
        assert result.perf is None


class TestByteIdentity:
    """The hot-path optimizations must not change a single output byte.

    The digests were captured from the pre-optimization tree; any engine,
    link, packet, or scheduler change that alters event order or results
    shows up here as a digest mismatch.
    """

    def _cases(self):
        paths = (wifi_config(1.0), lte_config(8.6))
        page = cnn_like_page()
        return {
            "bulk_ecf": (run_bulk, BulkDownloadSpec(
                scheduler="ecf", path_configs=paths, size=256_000, seed=3)),
            "bulk_minrtt": (run_bulk, BulkDownloadSpec(
                scheduler="minrtt", path_configs=paths, size=256_000, seed=3)),
            "dash_ecf": (run_streaming, StreamingRunConfig(
                scheduler="ecf", wifi_mbps=4.2, lte_mbps=8.6,
                video_duration=12.0, seed=3)),
            "dash_minrtt": (run_streaming, StreamingRunConfig(
                scheduler="minrtt", wifi_mbps=0.7, lte_mbps=8.6,
                video_duration=12.0, seed=3)),
            "dash_4sf": (run_streaming, StreamingRunConfig(
                scheduler="ecf", wifi_mbps=4.2, lte_mbps=8.6,
                video_duration=10.0, seed=3, subflows_per_interface=2)),
            "web_ecf": (run_web, WebBrowsingSpec(
                scheduler="ecf", path_configs=paths, seed=3,
                object_sizes=page.object_sizes[:24])),
            # 2 % loss keeps OLIA in congestion avoidance: ~1.7k coupled
            # increases, which no other golden runs.
            "bulk_olia": (run_bulk, BulkDownloadSpec(
                scheduler="ecf", size=3_000_000, seed=3,
                path_configs=(wifi_config(1.0, loss_rate=0.02),
                              lte_config(8.6, loss_rate=0.02)),
                connection=ConnectionConfig(congestion_control="olia"))),
        }

    def test_golden_digests_match(self, golden_digests):
        for name, (runner, spec) in self._cases().items():
            result = runner(spec)
            digest = hashlib.sha256(
                canonical_json(result.to_dict()).encode()
            ).hexdigest()
            assert digest == golden_digests[name], (
                f"{name}: output diverged from the pre-optimization golden"
            )

    @pytest.mark.parametrize("hash_seed", ["1", "2"])
    def test_golden_digest_holds_under_any_hash_seed(self, golden_digests, hash_seed):
        """Set-iteration order must not reach a result.

        A set of names iterated on the way to ``schedule()``, an RNG
        stream name or the wire form moves this digest under one of two
        fixed string-hash seeds, whatever the variable holding it is
        called.
        """
        _, spec = self._cases()["dash_ecf"]
        child = (
            "import hashlib, json, sys\n"
            "from repro.experiments.spec import canonical_json, run_spec, spec_from_dict\n"
            "result = run_spec(spec_from_dict(json.loads(sys.argv[1])))\n"
            "print(hashlib.sha256(canonical_json(result.to_dict()).encode()).hexdigest())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", child, json.dumps(spec_to_dict(spec))],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == golden_digests["dash_ecf"]

    def test_perf_collection_does_not_perturb_results(self):
        """Measuring a run must not change its outcome."""
        runner, spec = self._cases()["bulk_ecf"]
        plain = canonical_json(runner(spec).to_dict())
        measured, _record = perf.measure(runner, spec)
        assert canonical_json(measured.to_dict()) == plain


@pytest.fixture(scope="module")
def golden_digests():
    from pathlib import Path

    path = Path(__file__).parent / "data" / "golden_perf_digests.json"
    return json.loads(path.read_text())
