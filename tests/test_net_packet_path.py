"""Tests for packets, paths, profiles, and bandwidth processes."""

import random

import pytest

from repro.net.bandwidth import (
    ConstantBandwidth,
    PiecewiseBandwidth,
    RandomBandwidthProcess,
    PAPER_RATE_SET_MBPS,
)
from repro.net.packet import ACK_SIZE, HEADER_SIZE, MSS, Packet, segment_wire_size
from repro.net.profiles import (
    PathConfig,
    lte_config,
    make_path,
    queue_bytes_for,
    wifi_config,
    wild_lte_config,
    wild_wifi_config,
)
from tests.conftest import build_path


class TestPacket:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Packet(size=0)

    def test_rejects_payload_exceeding_size(self):
        with pytest.raises(ValueError):
            Packet(size=100, payload=200)

    def test_segment_wire_size_adds_headers(self):
        assert segment_wire_size(MSS) == MSS + HEADER_SIZE

    def test_segment_wire_size_rejects_empty(self):
        with pytest.raises(ValueError):
            segment_wire_size(0)

    def test_ack_is_small(self):
        assert ACK_SIZE < MSS

    def test_defaults(self):
        p = Packet(size=100)
        assert not p.is_ack
        assert p.dsn == -1
        assert p.recv_window is None


class TestPath:
    def test_base_rtt_sums_propagation(self, sim):
        path = build_path(sim, one_way_delay=0.02)
        assert path.base_rtt == pytest.approx(0.04)

    def test_set_rate_applies_both_directions(self, sim):
        path = build_path(sim, rate_mbps=10.0)
        path.set_rate(5e6)
        assert path.forward.rate_bps == 5e6
        assert path.reverse.rate_bps == 5e6

    def test_set_rate_with_asymmetric_reverse(self, sim):
        path = build_path(sim)
        path.set_rate(5e6, reverse_rate_bps=1e6)
        assert path.reverse.rate_bps == 1e6

    def test_rate_bps_reads_forward(self, sim):
        path = build_path(sim, rate_mbps=3.0)
        assert path.rate_bps == 3e6


class TestProfiles:
    def test_wifi_lower_delay_than_lte(self):
        assert wifi_config(8.6).one_way_delay < lte_config(8.6).one_way_delay

    def test_queue_scales_with_rate(self):
        assert queue_bytes_for(100.0, 0.1) > queue_bytes_for(1.0, 0.1)

    def test_queue_floor_applies_at_low_rates(self):
        assert queue_bytes_for(0.3, 0.1) == queue_bytes_for(0.1, 0.1)

    def test_make_path_builds_both_links(self, sim):
        path = make_path(sim, wifi_config(2.0))
        assert path.name == "wifi"
        assert path.forward.rate_bps == 2e6
        assert path.reverse.rate_bps == 2e6

    def test_wild_wifi_rtt_spans_wide_range(self):
        rtts = [wild_wifi_config(random.Random(i)).one_way_delay * 2 for i in range(200)]
        assert min(rtts) < 0.1
        assert max(rtts) > 0.5

    def test_wild_lte_rtt_is_stable(self):
        rtts = [wild_lte_config(random.Random(i)).one_way_delay * 2 for i in range(50)]
        assert all(0.055 <= r <= 0.085 for r in rtts)


class TestBandwidthProcesses:
    def test_constant_sets_rate_once(self, sim):
        path = build_path(sim)
        ConstantBandwidth(5e6).attach(sim, path)
        assert path.rate_bps == 5e6

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantBandwidth(0)

    def test_piecewise_requires_increasing_times(self):
        with pytest.raises(ValueError):
            PiecewiseBandwidth([(0.0, 1e6), (0.0, 2e6)])

    def test_piecewise_requires_entries(self):
        with pytest.raises(ValueError):
            PiecewiseBandwidth([])

    def test_piecewise_applies_changes_over_time(self, sim):
        path = build_path(sim)
        PiecewiseBandwidth([(0.0, 1e6), (10.0, 2e6)]).attach(sim, path)
        assert path.rate_bps == 1e6
        sim.run(until=11.0)
        assert path.rate_bps == 2e6

    def test_piecewise_rate_at(self):
        sched = PiecewiseBandwidth([(0.0, 1e6), (10.0, 2e6), (20.0, 3e6)])
        assert sched.rate_at(5.0) == 1e6
        assert sched.rate_at(10.0) == 2e6
        assert sched.rate_at(25.0) == 3e6

    def test_random_process_is_deterministic_per_seed(self):
        a = RandomBandwidthProcess(seed=3, duration=500.0).realize()
        b = RandomBandwidthProcess(seed=3, duration=500.0).realize()
        assert a.schedule == b.schedule

    def test_random_process_seeds_differ(self):
        a = RandomBandwidthProcess(seed=3, duration=500.0).realize()
        b = RandomBandwidthProcess(seed=4, duration=500.0).realize()
        assert a.schedule != b.schedule

    def test_random_process_rates_from_paper_set(self):
        schedule = RandomBandwidthProcess(seed=1, duration=1000.0).realize().schedule
        allowed = {r * 1e6 for r in PAPER_RATE_SET_MBPS}
        assert all(rate in allowed for _, rate in schedule)

    def test_random_process_mean_interval_roughly_respected(self):
        schedule = RandomBandwidthProcess(
            seed=5, duration=100_000.0, mean_interval=40.0
        ).realize().schedule
        mean_gap = schedule[-1][0] / (len(schedule) - 1)
        assert 30.0 < mean_gap < 50.0

    def test_random_process_changes_stay_within_duration(self):
        schedule = RandomBandwidthProcess(seed=2, duration=200.0).realize().schedule
        assert all(t < 200.0 for t, _ in schedule)

    def test_initial_rate_override(self):
        schedule = RandomBandwidthProcess(
            seed=2, duration=200.0, initial_rate_mbps=4.2
        ).realize().schedule
        assert schedule[0] == (0.0, 4.2e6)
