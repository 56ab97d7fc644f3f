"""Tests for the extension features: CUBIC and the harmonic-mean ABR."""

import pytest

from repro.apps.dash.abr import AbrInputs, HarmonicThroughputAbr, make_abr
from repro.apps.dash.media import VideoManifest
from repro.core import CcSpec, build
from repro.tcp.cc import CubicController
from repro.tcp.cc.cubic import BETA_CUBIC
from tests.conftest import build_connection, drain


class TestCubic:
    def test_factory_knows_cubic(self):
        assert isinstance(build(CcSpec.of("cubic")), CubicController)

    def single_path(self, sim):
        conn = build_connection(
            sim, path_specs=((10.0, 0.01),), congestion_control="cubic"
        )
        return conn, conn.subflows[0]

    def test_transfer_completes(self, sim):
        conn, sf = self.single_path(sim)
        conn.write(3_000_000)
        drain(sim)
        assert conn.delivered_bytes == 3_000_000

    def test_loss_decrease_is_gentler_than_reno(self, sim):
        conn, sf = self.single_path(sim)
        sf.cwnd = 100.0
        sf._in_flight = 100
        sf.rtt.add_sample(0.02)
        conn.cc.on_loss(sf)
        assert sf.cwnd == pytest.approx(100.0 * BETA_CUBIC)

    def test_growth_accelerates_away_from_wmax(self, sim):
        """Past the plateau, the cubic term grows the window faster."""
        conn, sf = self.single_path(sim)
        sf.rtt.add_sample(0.02)
        sf.cwnd = 100.0
        sf._in_flight = 100
        conn.cc.on_loss(sf)  # sets w_max = 100, cwnd = 70
        sf.ssthresh = 1.0  # force congestion avoidance
        near = conn.cc.ca_increase(sf)
        # Far in the future (convex region), growth is larger.
        sim.schedule(20.0, lambda: None)
        sim.run()
        far = conn.cc.ca_increase(sf)
        assert far >= near

    def test_increase_bounded_by_slow_start(self, sim):
        conn, sf = self.single_path(sim)
        sf.rtt.add_sample(0.02)
        sf.cwnd = 1.0
        assert conn.cc.ca_increase(sf) <= 1.0

    def test_rto_resets_epoch(self, sim):
        conn, sf = self.single_path(sim)
        sf.cwnd = 50.0
        sf._in_flight = 50
        conn.cc.on_rto(sf)
        assert sf.cwnd == 1.0


class TestHarmonicAbr:
    def inputs(self, samples, estimate=None):
        return AbrInputs(
            buffer_level=20.0,
            throughput_estimate_bps=estimate,
            last_representation=None,
            startup=False,
            recent_throughputs_bps=tuple(samples),
        )

    def test_harmonic_mean_dominated_by_slow_samples(self):
        manifest = VideoManifest()
        abr = HarmonicThroughputAbr(safety=1.0)
        # One fast outlier cannot lift the estimate much: harmonic mean of
        # (1, 1, 100) Mbps is ~1.5 Mbps.
        rep = abr.choose(manifest, self.inputs([1e6, 1e6, 100e6]))
        assert rep.bitrate_bps <= 1.6e6

    def test_falls_back_to_ewma_then_lowest(self):
        manifest = VideoManifest()
        abr = HarmonicThroughputAbr(safety=1.0)
        assert abr.choose(manifest, self.inputs([], estimate=5e6)).name == "720p"
        assert abr.choose(manifest, self.inputs([])).name == "144p"

    def test_window_limits_history(self):
        manifest = VideoManifest()
        abr = HarmonicThroughputAbr(safety=1.0, window=2)
        # Old slow samples fall outside the window.
        rep = abr.choose(manifest, self.inputs([0.1e6, 9e6, 9e6]))
        assert rep.name == "1080p"

    def test_validation(self):
        with pytest.raises(ValueError):
            HarmonicThroughputAbr(safety=0.0)
        with pytest.raises(ValueError):
            HarmonicThroughputAbr(window=0)

    def test_factory(self):
        assert isinstance(make_abr("harmonic"), HarmonicThroughputAbr)

    def test_streaming_session_with_harmonic_abr(self):
        from repro.experiments.runner import StreamingRunConfig, run_streaming

        result = run_streaming(StreamingRunConfig(
            scheduler="ecf", wifi_mbps=4.2, lte_mbps=8.6,
            video_duration=30.0, abr="harmonic",
        ))
        assert result.finished
        assert result.average_bitrate_bps > 0
