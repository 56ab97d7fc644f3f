"""Tests for the connection-level receiver (reorder buffer)."""

import pytest

from repro.mptcp.receiver import MptcpReceiver
from repro.net.packet import Packet


def data(dsn, payload=100, sf=0):
    return Packet(size=payload + 60, payload=payload, dsn=dsn, subflow_id=sf)


@pytest.fixture
def rx(sim):
    return MptcpReceiver(sim)


class TestInOrder:
    def test_in_order_delivery(self, sim, rx):
        delivered = []
        rx.on_deliver = delivered.append
        rx.on_data(data(0))
        rx.on_data(data(100))
        assert delivered == [100, 100]
        assert rx.expected_dsn == 200
        assert rx.delivered_bytes == 200

    def test_in_order_has_zero_ooo_delay(self, sim, rx):
        rx.on_data(data(0))
        assert rx.ooo_delays == [0.0]

    def test_data_ack_tracks_expected(self, sim, rx):
        rx.on_data(data(0))
        assert rx.data_ack == 100


class TestReordering:
    def test_gap_buffers_until_filled(self, sim, rx):
        delivered = []
        rx.on_deliver = delivered.append
        rx.on_data(data(100))
        assert delivered == []
        assert rx.buffered_bytes == 100
        rx.on_data(data(0))
        assert delivered == [100, 100]
        assert rx.buffered_bytes == 0

    def test_ooo_delay_measures_buffer_wait(self, sim, rx):
        rx.on_data(data(100))
        sim.schedule(0.5, rx.on_data, data(0))
        sim.run()
        # First delivered packet (dsn 0) waited 0; buffered one waited 0.5.
        assert rx.ooo_delays == [0.0, pytest.approx(0.5)]

    def test_multiple_gaps_drain_in_order(self, sim, rx):
        delivered = []
        rx.on_deliver = delivered.append
        rx.on_data(data(200))
        rx.on_data(data(100))
        rx.on_data(data(0))
        assert rx.expected_dsn == 300
        assert len(delivered) == 3

    def test_max_buffered_tracked(self, sim, rx):
        rx.on_data(data(100))
        rx.on_data(data(200))
        assert rx.max_buffered_bytes == 200


class TestDuplicates:
    def test_old_duplicate_ignored(self, sim, rx):
        rx.on_data(data(0))
        rx.on_data(data(0))
        assert rx.duplicate_packets == 1
        assert rx.delivered_bytes == 100

    def test_buffered_duplicate_ignored(self, sim, rx):
        rx.on_data(data(100))
        rx.on_data(data(100))
        assert rx.duplicate_packets == 1
        assert rx.buffered_bytes == 100

    def test_reinjected_copy_after_delivery_ignored(self, sim, rx):
        rx.on_data(data(0))
        rx.on_data(data(100))
        rx.on_data(data(100))  # late original after reinjection delivered
        assert rx.delivered_bytes == 200
        assert rx.duplicate_packets == 1


class TestRecvWindow:
    def test_window_shrinks_with_buffered_data(self, sim):
        rx = MptcpReceiver(sim, recv_buffer_bytes=1000)
        rx.on_data(data(500, payload=400))
        assert rx.recv_window == 600

    def test_window_recovers_after_drain(self, sim):
        rx = MptcpReceiver(sim, recv_buffer_bytes=1000)
        rx.on_data(data(100, payload=400))
        rx.on_data(data(0))
        assert rx.recv_window == 1000

    def test_window_never_negative(self, sim):
        rx = MptcpReceiver(sim, recv_buffer_bytes=300)
        assert rx.on_data(data(100, payload=400)) is False
        assert rx.window_drops == 1
        assert rx.buffered_bytes == 0
        assert rx.recv_window == 300

    def test_rejects_nonpositive_buffer(self, sim):
        with pytest.raises(ValueError):
            MptcpReceiver(sim, recv_buffer_bytes=0)


class TestWindowOverflow:
    def test_stalled_gap_with_tiny_buffer_drops_instead_of_growing(self, sim):
        rx = MptcpReceiver(sim, recv_buffer_bytes=250)
        # DSN 0 never arrives: every out-of-order segment parks in the
        # buffer until capacity runs out, then gets dropped and counted.
        assert rx.on_data(data(100)) is True
        assert rx.on_data(data(200)) is True
        for dsn in range(300, 1000, 100):
            assert rx.on_data(data(dsn)) is False
        assert rx.buffered_bytes == 200
        assert rx.buffered_bytes <= rx.recv_buffer_bytes
        assert rx.window_drops == 7
        assert rx.recv_window == 50

    def test_in_order_delivery_ignores_buffer_capacity(self, sim):
        rx = MptcpReceiver(sim, recv_buffer_bytes=100)
        assert rx.on_data(data(0, payload=5000)) is True
        assert rx.delivered_bytes == 5000
        assert rx.window_drops == 0

    def test_dropped_segment_can_be_retransmitted_later(self, sim):
        rx = MptcpReceiver(sim, recv_buffer_bytes=150)
        assert rx.on_data(data(100)) is True
        assert rx.on_data(data(200)) is False  # no room yet
        assert rx.on_data(data(0)) is True  # gap fills, buffer drains
        assert rx.on_data(data(200)) is True  # retransmitted copy fits now
        assert rx.delivered_bytes == 300
        assert rx.window_drops == 1


class TestOverlapStraddle:
    def test_segment_straddling_delivery_edge_is_rejected(self, sim, rx):
        rx.on_data(data(0))
        with pytest.raises(ValueError, match="straddles the delivery edge"):
            rx.on_data(data(50, payload=100))

    def test_whole_stale_segment_is_a_plain_duplicate(self, sim, rx):
        rx.on_data(data(0))
        assert rx.on_data(data(0)) is True
        assert rx.duplicate_packets == 1


class TestLastArrival:
    def test_last_arrival_tracked_per_subflow(self, sim, rx):
        rx.on_data(data(0, sf=0))
        sim.schedule(1.0, rx.on_data, data(100, sf=1))
        sim.run()
        assert rx.last_arrival_by_subflow == {0: 0.0, 1: 1.0}

    def test_record_delays_can_be_disabled(self, sim):
        rx = MptcpReceiver(sim, record_delays=False)
        rx.on_data(data(0))
        assert rx.ooo_delays == []
        assert rx.delivered_bytes == 100
