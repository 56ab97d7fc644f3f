"""Tests for the experiment harnesses (runner, grid, ideal, wild)."""

import pytest

from repro.experiments.grid import (
    bitrate_ratio_matrix,
    format_matrix,
    fraction_fast_matrix,
    streaming_grid,
)
from repro.experiments.ideal import ideal_average_bitrate, ideal_fast_fraction
from repro.experiments.runner import StreamingRunConfig, run_streaming
from repro.experiments.wild import (
    WildStreamingSpec,
    run_wild,
    run_wild_web,
    wild_path_pair,
)
from repro.net.bandwidth import PiecewiseBandwidth


class TestIdealModels:
    def test_ideal_bitrate_caps_at_top_representation(self):
        assert ideal_average_bitrate([8.6e6, 8.6e6]) == pytest.approx(8.47e6)

    def test_ideal_bitrate_limited_by_bandwidth(self):
        assert ideal_average_bitrate([0.3e6, 0.7e6]) == pytest.approx(1.0e6)

    def test_ideal_fraction(self):
        assert ideal_fast_fraction(8.6, 0.3) == pytest.approx(8.6 / 8.9)

    def test_ideal_fraction_validation(self):
        with pytest.raises(ValueError):
            ideal_fast_fraction(0.0, 0.0)


class TestStreamingRunner:
    def test_short_run_completes(self):
        config = StreamingRunConfig(
            scheduler="ecf", wifi_mbps=4.2, lte_mbps=8.6, video_duration=30.0
        )
        result = run_streaming(config)
        assert result.finished
        assert len(result.metrics.chunks) == 6
        assert result.average_bitrate_bps > 0

    def test_fast_interface_by_bandwidth(self):
        config = StreamingRunConfig(wifi_mbps=0.3, lte_mbps=8.6, video_duration=15.0)
        assert run_streaming(config).fast_interface == "lte"
        config = StreamingRunConfig(wifi_mbps=8.6, lte_mbps=0.3, video_duration=15.0)
        assert run_streaming(config).fast_interface == "wifi"

    def test_fraction_fast_in_unit_interval(self):
        config = StreamingRunConfig(wifi_mbps=1.1, lte_mbps=8.6, video_duration=30.0)
        result = run_streaming(config)
        assert 0.0 <= result.fraction_fast <= 1.0

    def test_traces_recorded_when_requested(self):
        config = StreamingRunConfig(
            wifi_mbps=4.2, lte_mbps=8.6, video_duration=20.0,
            record_traces=True, sample_period=0.5,
        )
        result = run_streaming(config)
        assert result.trace is not None
        assert result.trace.series("cwnd.wifi0")
        assert result.trace.series("sndbuf.lte1")

    def test_no_traces_by_default(self):
        config = StreamingRunConfig(wifi_mbps=4.2, lte_mbps=8.6, video_duration=15.0)
        assert run_streaming(config).trace is None

    def test_idle_reset_toggle_changes_behavior(self):
        base = dict(scheduler="minrtt", wifi_mbps=0.3, lte_mbps=8.6, video_duration=60.0)
        with_reset = run_streaming(StreamingRunConfig(**base))
        without = run_streaming(StreamingRunConfig(idle_reset_enabled=False, **base))
        assert sum(without.idle_resets_by_interface.values()) == 0
        assert sum(with_reset.idle_resets_by_interface.values()) > 0

    def test_four_subflows(self):
        config = StreamingRunConfig(
            wifi_mbps=0.3, lte_mbps=8.6, video_duration=20.0,
            subflows_per_interface=2,
        )
        result = run_streaming(config)
        assert result.finished
        # Two wifi + two lte paths, evenly split regulation.
        assert set(result.payload_by_interface) == {"wifi", "lte"}

    def test_bandwidth_process_applied(self):
        process = PiecewiseBandwidth([(0.0, 2e6), (10.0, 8e6)])
        config = StreamingRunConfig(
            wifi_mbps=4.2, lte_mbps=8.6, video_duration=30.0,
            wifi_process=process,
        )
        result = run_streaming(config)
        assert result.finished

    def test_last_packet_gaps_collected(self):
        config = StreamingRunConfig(wifi_mbps=0.3, lte_mbps=8.6, video_duration=30.0)
        result = run_streaming(config)
        assert result.last_packet_gaps
        assert all(g >= 0 for g in result.last_packet_gaps)

    def test_deterministic_for_seed(self):
        config = StreamingRunConfig(wifi_mbps=1.1, lte_mbps=8.6, video_duration=20.0, seed=9)
        a = run_streaming(config)
        b = run_streaming(config)
        assert a.average_bitrate_bps == b.average_bitrate_bps


class TestGrid:
    def small_grid(self):
        base = StreamingRunConfig(scheduler="minrtt", video_duration=15.0)
        return streaming_grid(base, (0.3, 8.6), (8.6,))

    def test_grid_covers_all_cells(self):
        grid = self.small_grid()
        assert set(grid) == {(0.3, 8.6), (8.6, 8.6)}

    def test_ratio_matrix_in_unit_interval(self):
        ratios = bitrate_ratio_matrix(self.small_grid())
        assert all(0.0 <= v <= 1.0 for v in ratios.values())

    def test_fraction_matrix(self):
        fractions = fraction_fast_matrix(self.small_grid())
        assert all(0.0 <= v <= 1.0 for v in fractions.values())

    def test_format_matrix_renders(self):
        ratios = bitrate_ratio_matrix(self.small_grid())
        text = format_matrix(ratios, (0.3, 8.6), (8.6,))
        assert "0.3" in text and "8.6" in text

    def test_runs_per_cell(self):
        base = StreamingRunConfig(video_duration=15.0)
        grid = streaming_grid(base, (8.6,), (8.6,), runs_per_cell=2)
        assert len(grid[(8.6, 8.6)]) == 2


class TestWild:
    def test_path_pair_deterministic(self):
        assert wild_path_pair(3) == wild_path_pair(3)
        assert wild_path_pair(3) != wild_path_pair(4)

    def test_wild_streaming_sorted_by_wifi_rtt(self):
        runs = run_wild(WildStreamingSpec(runs=3, video_duration=15.0)).runs
        rtts = [run.wifi_config.one_way_delay for run in runs]
        assert rtts == sorted(rtts)
        for run in runs:
            assert set(run.results) == {"minrtt", "ecf"}

    def test_wild_web_collects_both_schedulers(self):
        results = run_wild_web(runs=2)
        assert len(results["minrtt"]) == 2
        assert len(results["ecf"]) == 2
        assert all(r.complete for rs in results.values() for r in rs)
