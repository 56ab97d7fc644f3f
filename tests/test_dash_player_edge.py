"""Edge cases of the DASH player and HTTP interplay."""


from repro.apps.dash.abr import FixedAbr, ThroughputAbr
from repro.apps.dash.media import VideoManifest
from repro.apps.dash.player import DashPlayer
from repro.apps.http import HttpSession
from repro.sim.trace import TraceRecorder
from tests.conftest import build_connection, drain


def build_player(sim, duration=30.0, rate=20.0, **kw):
    conn = build_connection(sim, path_specs=((rate, 0.01), (rate, 0.02)))
    session = HttpSession(sim, conn)
    manifest = VideoManifest(duration=duration, chunk_duration=5.0)
    return DashPlayer(sim, session, manifest, **kw), manifest


class TestRebufferingLifecycle:
    def test_rebuffer_resumes_at_threshold(self, sim):
        player, manifest = build_player(sim, duration=60.0, rate=0.45)
        player.abr = FixedAbr(manifest.representations[2])  # 1.0 Mbps > 2x0.45
        player.start()
        drain(sim, limit=900.0)
        assert player.metrics.rebuffer_events >= 1
        # Playback eventually consumed the whole video despite stalls.
        assert player.finished

    def test_rebuffer_time_accumulates_only_while_stalled(self, sim):
        player, manifest = build_player(sim, duration=30.0)
        player.abr = FixedAbr(manifest.representations[0])
        player.start()
        drain(sim)
        assert player.metrics.rebuffer_time == 0.0
        assert player.metrics.rebuffer_events == 0


class TestStartupLifecycle:
    def test_playback_starts_at_threshold(self, sim):
        trace = TraceRecorder()
        player, manifest = build_player(sim, duration=60.0, trace=trace,
                                        start_threshold=10.0)
        player.start()
        drain(sim)
        t0 = player.metrics.startup_completed_at
        assert t0 is not None
        # At the moment playback began, the buffer held >= threshold.
        buffered = [v for t, v in trace.series("player.buffer") if t <= t0]
        assert buffered[-1] >= 10.0 - 1e-9

    def test_short_video_finishes_even_below_threshold(self, sim):
        player, manifest = build_player(sim, duration=5.0)
        player.start()
        drain(sim)
        assert player.finished
        assert len(player.metrics.chunks) == 1


class TestAbrFeedback:
    def test_throughput_abr_climbs_with_capacity(self, sim):
        player, manifest = build_player(sim, duration=60.0, rate=30.0,
                                        abr=ThroughputAbr())
        player.start()
        drain(sim)
        reps = [c.representation.name for c in player.metrics.chunks]
        # Starts conservative, ends at the top tier.
        assert reps[0] == "144p"
        assert reps[-1] == "1080p"

    def test_recent_throughputs_fed_to_abr(self, sim):
        seen = {}

        class SpyAbr(ThroughputAbr):
            def choose(self, manifest, inputs):
                seen["history"] = inputs.recent_throughputs_bps
                return super().choose(manifest, inputs)

        player, manifest = build_player(sim, duration=30.0, abr=SpyAbr())
        player.start()
        drain(sim)
        assert len(seen["history"]) >= 1

    def test_steady_chunks_fallback_without_startup(self, sim):
        player, manifest = build_player(sim, duration=10.0)
        player.start()
        drain(sim)
        # Very short session: steady set falls back to all chunks.
        assert player.metrics.steady_chunks()


class TestMetricsConsistency:
    def test_downloaded_bytes_match_chunk_sizes(self, sim):
        player, manifest = build_player(sim)
        player.start()
        drain(sim)
        assert player.downloaded_bytes == sum(c.size for c in player.metrics.chunks)

    def test_chunk_indices_sequential(self, sim):
        player, manifest = build_player(sim)
        player.start()
        drain(sim)
        assert [c.index for c in player.metrics.chunks] == list(
            range(manifest.num_chunks)
        )

    def test_average_throughput_positive(self, sim):
        player, manifest = build_player(sim)
        player.start()
        drain(sim)
        assert player.metrics.steady_average_throughput_bps > 0
