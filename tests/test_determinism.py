"""Reproducibility tests: identical seeds must yield identical results.

Every experiment harness is supposed to be a pure function of its
configuration and seed -- that is what makes the paper's scenario
comparisons ("each scheduler sees the same scenario") meaningful.
"""

from repro.apps.bulk import BulkDownloadSpec, run_bulk
from repro.experiments.runner import StreamingRunConfig, run_streaming
from repro.experiments.wild import WildStreamingSpec, run_wild
from repro.net.profiles import lte_config, wifi_config
from repro.workloads.scenarios import random_bandwidth_scenarios
from repro.workloads.web import WebBrowsingSpec, run_web


class TestDeterminism:
    def test_bulk_download_bitwise_stable(self):
        paths = (wifi_config(1.0), lte_config(8.6))
        spec = BulkDownloadSpec("ecf", paths, 512 * 1024, seed=11)
        a = run_bulk(spec)
        b = run_bulk(spec)
        assert a.completion_time == b.completion_time
        assert a.payload_by_path == b.payload_by_path

    def test_streaming_chunk_log_stable(self):
        config = StreamingRunConfig(
            scheduler="ecf", wifi_mbps=1.1, lte_mbps=8.6,
            video_duration=30.0, seed=7,
        )
        a = run_streaming(config)
        b = run_streaming(config)
        assert [c.completed_at for c in a.metrics.chunks] == [
            c.completed_at for c in b.metrics.chunks
        ]
        assert a.ooo_delays == b.ooo_delays

    def test_streaming_seed_changes_results(self):
        base = dict(scheduler="minrtt", wifi_mbps=1.1, lte_mbps=8.6, video_duration=30.0)
        # Different seeds only matter through stochastic elements; with
        # no loss the run is seed-independent, which is itself worth
        # pinning: the testbed figures are driven by dynamics, not luck.
        a = run_streaming(StreamingRunConfig(seed=1, **base))
        b = run_streaming(StreamingRunConfig(seed=2, **base))
        assert a.average_bitrate_bps == b.average_bitrate_bps

    def test_web_browsing_stable(self):
        paths = (wifi_config(2.0), lte_config(8.6))
        spec = WebBrowsingSpec("minrtt", paths, seed=5)
        a = run_web(spec)
        b = run_web(spec)
        assert a.object_completion_times == b.object_completion_times
        assert a.page_load_time == b.page_load_time

    def test_wild_runs_stable(self):
        spec = WildStreamingSpec(runs=2, video_duration=15.0)
        a = run_wild(spec)
        b = run_wild(spec)
        for run_a, run_b in zip(a.runs, b.runs):
            assert run_a.wifi_config == run_b.wifi_config
            assert (
                run_a.throughput_mbps("ecf") == run_b.throughput_mbps("ecf")
            )

    def test_scenarios_shared_across_schedulers(self):
        """The same scenario object drives every scheduler: its schedule
        must not be consumed/mutated by a run."""
        scenario = random_bandwidth_scenarios(count=1, duration=100.0)[0]
        before = list(scenario.wifi.schedule)
        for scheduler in ("minrtt", "ecf"):
            run_streaming(StreamingRunConfig(
                scheduler=scheduler,
                wifi_mbps=scenario.wifi.rate_at(0.0) / 1e6,
                lte_mbps=scenario.lte.rate_at(0.0) / 1e6,
                video_duration=20.0,
                wifi_process=scenario.wifi,
                lte_process=scenario.lte,
            ))
        assert scenario.wifi.schedule == before
