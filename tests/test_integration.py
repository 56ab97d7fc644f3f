"""End-to-end integration tests across the full stack.

These check the system-level invariants DESIGN.md commits to: single-path
goodput tracks the regulated rate, homogeneous paths aggregate, ECF never
loses to the default scheduler under heterogeneity, and the receiver's
byte stream is exact.
"""

import pytest

from repro.apps.bulk import BulkDownloadSpec, run_bulk
from repro.core.spec import SchedulerSpec, build
from repro.experiments.runner import StreamingRunConfig, run_streaming
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.profiles import lte_config, make_path, wifi_config
from repro.sim.engine import Simulator


def timed_transfer(scheduler, path_configs, nbytes, cc="coupled"):
    """Transfer nbytes; returns (elapsed, conn)."""
    sim = Simulator()
    paths = [make_path(sim, pc) for pc in path_configs]
    conn = MptcpConnection(
        sim, paths, build(SchedulerSpec.of(scheduler)),
        config=ConnectionConfig(handshake_delays=False, congestion_control=cc),
    )
    conn.write(nbytes)
    sim.run(until=600.0)
    assert conn.delivered_bytes == nbytes, "transfer did not complete"
    last = max(conn.receiver.last_arrival_by_subflow.values())
    return last, conn


class TestGoodput:
    def test_single_path_tracks_regulated_rate(self):
        elapsed, _ = timed_transfer("minrtt", [wifi_config(8.6)], 10_000_000)
        goodput = 10_000_000 * 8 / elapsed / 1e6
        # Payload efficiency is ~96%; slow start costs a little more.
        assert 6.5 < goodput <= 8.6

    def test_homogeneous_paths_aggregate(self):
        single, _ = timed_transfer("minrtt", [wifi_config(8.6)], 10_000_000)
        double, _ = timed_transfer(
            "minrtt", [wifi_config(8.6), lte_config(8.6)], 10_000_000
        )
        assert double < single * 0.7  # clear aggregation benefit

    def test_low_rate_path_is_honored(self):
        elapsed, _ = timed_transfer("minrtt", [wifi_config(0.3)], 300_000)
        goodput = 300_000 * 8 / elapsed / 1e6
        assert goodput <= 0.3

    @pytest.mark.parametrize("cc", ["reno", "coupled", "olia"])
    def test_all_congestion_controllers_complete(self, cc):
        elapsed, _ = timed_transfer(
            "minrtt", [wifi_config(4.2), lte_config(8.6)], 5_000_000, cc=cc
        )
        assert elapsed < 60.0


class TestDeliveryExactness:
    @pytest.mark.parametrize("scheduler", ["minrtt", "ecf", "blest", "daps"])
    def test_delivered_stream_is_exact(self, scheduler):
        _, conn = timed_transfer(
            scheduler, [wifi_config(1.0), lte_config(8.6)], 2_000_000
        )
        assert conn.receiver.expected_dsn == 2_000_000
        assert conn.receiver.buffered_bytes == 0
        assert all(d >= 0 for d in conn.receiver.ooo_delays)


class TestEcfVersusDefault:
    def test_ecf_reduces_iw_resets_under_heterogeneity(self):
        resets = {}
        for scheduler in ("minrtt", "ecf"):
            result = run_streaming(StreamingRunConfig(
                scheduler=scheduler, wifi_mbps=0.3, lte_mbps=8.6,
                video_duration=90.0,
            ))
            resets[scheduler] = sum(result.iw_resets_by_interface.values())
        assert resets["ecf"] < resets["minrtt"]

    def test_ecf_bitrate_at_least_default_heterogeneous(self):
        rates = {}
        for scheduler in ("minrtt", "ecf"):
            result = run_streaming(StreamingRunConfig(
                scheduler=scheduler, wifi_mbps=0.3, lte_mbps=8.6,
                video_duration=90.0,
            ))
            rates[scheduler] = result.average_bitrate_bps
        assert rates["ecf"] >= rates["minrtt"]

    def test_ecf_matches_default_homogeneous(self):
        rates = {}
        for scheduler in ("minrtt", "ecf"):
            result = run_streaming(StreamingRunConfig(
                scheduler=scheduler, wifi_mbps=8.6, lte_mbps=8.6,
                video_duration=60.0,
            ))
            rates[scheduler] = result.average_bitrate_bps
        assert rates["ecf"] == pytest.approx(rates["minrtt"], rel=0.1)

    def test_ecf_keeps_last_packet_gap_comparable(self):
        """Per-chunk last-packet gaps: ECF's steady-state mean gap stays
        within noise of the default's (the paper's Fig 5 effect shows up
        robustly in the longer benchmark runs; the short test run only
        checks ECF does not regress)."""
        gaps = {}
        for scheduler in ("minrtt", "ecf"):
            result = run_streaming(StreamingRunConfig(
                scheduler=scheduler, wifi_mbps=0.3, lte_mbps=8.6,
                video_duration=120.0,
            ))
            steady = result.last_packet_gaps[len(result.last_packet_gaps) // 2:]
            gaps[scheduler] = sum(steady) / len(steady)
        assert gaps["ecf"] <= gaps["minrtt"] * 1.25

    def test_wget_ecf_never_slower_with_margin(self):
        """Fig 19's claim: ECF never does worse than default (within noise)."""
        paths = (wifi_config(1.0), lte_config(8.0))
        default = run_bulk(BulkDownloadSpec("minrtt", paths, 512 * 1024))
        ecf = run_bulk(BulkDownloadSpec("ecf", paths, 512 * 1024))
        assert ecf.completion_time <= default.completion_time * 1.15


class TestIdleResetAblation:
    def test_disabling_reset_raises_throughput_when_symmetric(self):
        """Fig 6's gain regime in our reproduction: with symmetric fast
        paths the reset is pure overhead, so disabling it helps; the
        result still stays below the ideal aggregate (see EXPERIMENTS.md
        for the heterogeneous-regime deviation)."""
        base = dict(scheduler="minrtt", wifi_mbps=8.6, lte_mbps=8.6, video_duration=120.0)
        with_reset = run_streaming(StreamingRunConfig(**base))
        without = run_streaming(StreamingRunConfig(idle_reset_enabled=False, **base))
        assert (
            without.metrics.steady_average_throughput_bps
            >= with_reset.metrics.steady_average_throughput_bps
        )
        assert without.metrics.steady_average_throughput_bps < 17.2e6
