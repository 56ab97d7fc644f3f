"""Tests for the DASH stack: media model, ABR algorithms, player."""

import pytest

from repro.apps.dash.abr import (
    AbrInputs,
    BufferBasedAbr,
    FixedAbr,
    ThroughputAbr,
    make_abr,
)
from repro.apps.dash.media import (
    PAPER_REPRESENTATIONS,
    Representation,
    VideoManifest,
)
from repro.apps.dash.player import DashPlayer
from repro.apps.http import HttpSession
from repro.sim.trace import TraceRecorder
from tests.conftest import build_connection, drain


def inputs(buffer_level=20.0, throughput=None, startup=False):
    return AbrInputs(
        buffer_level=buffer_level,
        throughput_estimate_bps=throughput,
        last_representation=None,
        startup=startup,
    )


class TestMedia:
    def test_paper_representations_match_table1(self):
        rates = [round(r.bitrate_bps / 1e6, 2) for r in PAPER_REPRESENTATIONS]
        assert rates == [0.26, 0.64, 1.0, 1.6, 4.14, 8.47]

    def test_chunk_bytes(self):
        rep = Representation("x", 1e6)
        assert rep.chunk_bytes(5.0) == 625_000

    def test_manifest_chunk_count(self):
        assert VideoManifest(duration=20.0, chunk_duration=5.0).num_chunks == 4

    def test_manifest_validates_inputs(self):
        with pytest.raises(ValueError):
            VideoManifest(duration=0)
        with pytest.raises(ValueError):
            VideoManifest(representations=[])

    def test_manifest_requires_sorted_representations(self):
        reps = [Representation("b", 2e6), Representation("a", 1e6)]
        with pytest.raises(ValueError):
            VideoManifest(representations=reps)

    def test_best_under(self):
        manifest = VideoManifest()
        assert manifest.best_under(1.2e6).name == "360p"
        assert manifest.best_under(100.0).name == "144p"  # floor
        assert manifest.best_under(1e9).name == "1080p"

    def test_ideal_average_bitrate_caps_at_top(self):
        manifest = VideoManifest()
        assert manifest.ideal_average_bitrate(100e6) == pytest.approx(8.47e6)
        assert manifest.ideal_average_bitrate(1e6) == pytest.approx(1e6)


class TestAbr:
    def test_fixed_returns_its_representation(self):
        manifest = VideoManifest()
        rep = manifest.representations[2]
        assert FixedAbr(rep).choose(manifest, inputs()) is rep

    def test_fixed_rejects_foreign_representation(self):
        manifest = VideoManifest()
        with pytest.raises(ValueError):
            FixedAbr(Representation("alien", 5e6)).choose(manifest, inputs())

    def test_throughput_abr_scales_by_safety(self):
        manifest = VideoManifest()
        abr = ThroughputAbr(safety=0.85)
        # 0.85 * 5 Mbps = 4.25 -> 720p (4.14)
        assert abr.choose(manifest, inputs(throughput=5e6)).name == "720p"

    def test_throughput_abr_lowest_without_estimate(self):
        manifest = VideoManifest()
        assert ThroughputAbr().choose(manifest, inputs()).name == "144p"

    def test_throughput_abr_validates_safety(self):
        with pytest.raises(ValueError):
            ThroughputAbr(safety=0.0)

    def test_bba_low_buffer_picks_lowest(self):
        manifest = VideoManifest()
        abr = BufferBasedAbr(reservoir=5.0, cushion=10.0)
        assert abr.choose(manifest, inputs(buffer_level=3.0)).name == "144p"

    def test_bba_full_buffer_picks_highest(self):
        manifest = VideoManifest()
        abr = BufferBasedAbr(reservoir=5.0, cushion=10.0)
        assert abr.choose(manifest, inputs(buffer_level=20.0)).name == "1080p"

    def test_bba_mid_buffer_interpolates(self):
        manifest = VideoManifest()
        abr = BufferBasedAbr(reservoir=5.0, cushion=10.0)
        mid = abr.choose(manifest, inputs(buffer_level=10.0))
        assert mid.name not in ("144p", "1080p")

    def test_bba_monotone_in_buffer(self):
        manifest = VideoManifest()
        abr = BufferBasedAbr()
        rates = [
            abr.choose(manifest, inputs(buffer_level=b)).bitrate_bps
            for b in (2, 6, 9, 12, 16, 25)
        ]
        assert rates == sorted(rates)

    def test_bba_startup_uses_throughput(self):
        manifest = VideoManifest()
        abr = BufferBasedAbr()
        rep = abr.choose(manifest, inputs(buffer_level=0, throughput=2e6, startup=True))
        assert rep.name == "480p"  # 0.85 * 2 = 1.7 -> 1.6 Mbps tier

    def test_bba_startup_without_estimate_is_lowest(self):
        manifest = VideoManifest()
        rep = BufferBasedAbr().choose(manifest, inputs(startup=True))
        assert rep.name == "144p"

    def test_bba_optional_cap(self):
        manifest = VideoManifest()
        abr = BufferBasedAbr(cap_factor=1.0)
        rep = abr.choose(manifest, inputs(buffer_level=25.0, throughput=2e6))
        assert rep.bitrate_bps <= 2e6

    def test_make_abr_factory(self):
        manifest = VideoManifest()
        assert isinstance(make_abr("bba"), BufferBasedAbr)
        assert isinstance(make_abr("throughput"), ThroughputAbr)
        assert make_abr("fixed:360p", manifest).representation.name == "360p"
        with pytest.raises(ValueError):
            make_abr("fixed:999p", manifest)
        with pytest.raises(ValueError):
            make_abr("fixed:360p")  # needs manifest
        with pytest.raises(ValueError):
            make_abr("nope")


class TestPlayer:
    def make_player(self, sim, duration=30.0, abr=None, trace=None, **kw):
        conn = build_connection(sim, path_specs=((20.0, 0.01), (20.0, 0.02)))
        session = HttpSession(sim, conn)
        manifest = VideoManifest(duration=duration, chunk_duration=5.0)
        player = DashPlayer(sim, session, manifest, abr=abr, trace=trace, **kw)
        return player

    def test_player_downloads_all_chunks(self, sim):
        player = self.make_player(sim)
        player.start()
        drain(sim)
        assert player.finished
        assert len(player.metrics.chunks) == 6

    def test_start_twice_raises(self, sim):
        player = self.make_player(sim)
        player.start()
        with pytest.raises(RuntimeError):
            player.start()

    def test_threshold_validation(self, sim):
        with pytest.raises(ValueError):
            self.make_player(sim, max_buffer=10.0, start_threshold=20.0)

    def test_buffer_never_exceeds_max(self, sim):
        trace = TraceRecorder()
        player = self.make_player(sim, duration=60.0, trace=trace)
        player.start()
        drain(sim)
        assert all(v <= player.max_buffer + 1e-9 for v in trace.values("player.buffer"))

    def test_on_off_pattern_with_fast_network(self, sim):
        """Fast network + capped buffer forces OFF gaps between requests."""
        player = self.make_player(sim, duration=60.0)
        player.start()
        drain(sim)
        requests = [c.requested_at for c in player.metrics.chunks]
        gaps = [b - a for a, b in zip(requests, requests[1:])]
        # Once the buffer fills, requests are spaced about a chunk apart.
        assert max(gaps) > 2.0

    def test_average_bitrate_reflects_abr(self, sim):
        manifest = VideoManifest(duration=30.0)
        abr = FixedAbr(manifest.representations[0])
        player = self.make_player(sim, abr=abr)
        player.start()
        drain(sim)
        assert player.metrics.average_bitrate_bps == pytest.approx(0.26e6)

    def test_rebuffering_on_starved_network(self, sim):
        conn = build_connection(sim, path_specs=((0.2, 0.05),))
        session = HttpSession(sim, conn)
        manifest = VideoManifest(duration=30.0, chunk_duration=5.0)
        player = DashPlayer(
            sim, session, manifest,
            abr=FixedAbr(manifest.representations[2]),  # 1 Mbps on 0.2 Mbps
        )
        player.start()
        drain(sim, limit=800.0)
        assert player.metrics.rebuffer_events > 0
        assert player.metrics.rebuffer_time > 0

    def test_download_trace_recorded(self, sim):
        trace = TraceRecorder()
        player = self.make_player(sim, trace=trace)
        player.start()
        drain(sim)
        downloads = trace.values("player.download_bytes")
        assert downloads == sorted(downloads)
        assert downloads[-1] == player.downloaded_bytes

    def test_startup_ends_when_playback_begins(self, sim):
        player = self.make_player(sim, duration=60.0)
        player.start()
        drain(sim)
        assert not player.startup
        assert player.metrics.startup_completed_at is not None

    def test_chunk_throughputs_positive(self, sim):
        player = self.make_player(sim)
        player.start()
        drain(sim)
        assert all(t > 0 for t in player.metrics.chunk_throughputs_bps())
