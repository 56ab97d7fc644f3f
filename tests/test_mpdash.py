"""Tests for the MP-DASH-style deadline-aware path manager."""

import pytest

from repro.apps.dash.media import PAPER_REPRESENTATIONS
from repro.apps.dash.mpdash import MpDashPathManager, MpDashScheduler
from repro.core.spec import SchedulerSpec, build
from repro.experiments.runner import StreamingRunConfig, run_streaming
from tests.conftest import build_connection


def warmed(sim):
    conn = build_connection(sim, scheduler_name="mpdash",
                            path_specs=((2.0, 0.01), (10.0, 0.05)))
    conn.subflows[0].rtt.add_sample(0.02)
    conn.subflows[1].rtt.add_sample(0.1)
    return conn


class TestScheduler:
    def test_registry_builds_mpdash(self):
        assert isinstance(build(SchedulerSpec.of("mpdash")), MpDashScheduler)

    def test_cellular_inactive_restricts_to_primary(self, sim):
        conn = warmed(sim)
        conn.scheduler.cellular_active = False
        assert conn.scheduler.select(conn) is conn.subflows[0]
        conn.subflows[0]._in_flight = int(conn.subflows[0].cwnd)
        assert conn.scheduler.select(conn) is None

    def test_cellular_active_admits_secondary(self, sim):
        conn = warmed(sim)
        conn.scheduler.cellular_active = True
        conn.subflows[0]._in_flight = int(conn.subflows[0].cwnd)
        assert conn.scheduler.select(conn) is conn.subflows[1]


class TestPathManager:
    def test_margin_validation(self, sim):
        conn = warmed(sim)
        with pytest.raises(ValueError):
            MpDashPathManager(conn.scheduler, conn, margin=0.0)

    def test_low_requirement_deactivates_cellular(self, sim):
        conn = warmed(sim)
        manager = MpDashPathManager(conn.scheduler, conn)
        # Preferred path: cwnd 10 * 1448 B / 20 ms ~ 5.8 Mbps.
        manager.on_chunk_request(PAPER_REPRESENTATIONS[0], 5.0)  # 0.26 Mbps
        assert not conn.scheduler.cellular_active

    def test_high_requirement_activates_cellular(self, sim):
        conn = warmed(sim)
        manager = MpDashPathManager(conn.scheduler, conn)
        manager.on_chunk_request(PAPER_REPRESENTATIONS[-1], 5.0)  # 8.47 Mbps
        assert conn.scheduler.cellular_active

    def test_estimate_tracks_cwnd_and_rtt(self, sim):
        conn = warmed(sim)
        manager = MpDashPathManager(conn.scheduler, conn)
        base = manager.preferred_rate_estimate_bps()
        conn.subflows[0].cwnd *= 2
        assert manager.preferred_rate_estimate_bps() == pytest.approx(2 * base)


class TestEndToEnd:
    def test_streaming_session_with_mpdash(self):
        result = run_streaming(StreamingRunConfig(
            scheduler="mpdash", wifi_mbps=4.2, lte_mbps=8.6,
            video_duration=60.0,
        ))
        assert result.finished
        assert result.average_bitrate_bps > 0

    def test_mpdash_reduces_cellular_usage_when_wifi_suffices(self):
        """Fix the rate at 480p (1.6 Mbps), far below the 8.6 Mbps WiFi:
        MP-DASH should move (almost) nothing over LTE while the default
        scheduler spills onto it whenever the WiFi window is full."""
        usage = {}
        for name in ("minrtt", "mpdash"):
            result = run_streaming(StreamingRunConfig(
                scheduler=name, wifi_mbps=8.6, lte_mbps=8.6,
                video_duration=60.0, abr="fixed:480p",
            ))
            total = sum(result.payload_by_interface.values())
            usage[name] = result.payload_by_interface.get("lte", 0) / total
        assert usage["mpdash"] < usage["minrtt"]
        assert usage["mpdash"] < 0.10

    def test_mpdash_still_uses_cellular_when_needed(self):
        result = run_streaming(StreamingRunConfig(
            scheduler="mpdash", wifi_mbps=0.3, lte_mbps=8.6,
            video_duration=60.0,
        ))
        assert result.payload_by_interface.get("lte", 0) > 0
        assert result.finished
