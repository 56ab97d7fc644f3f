"""Tests for the TCP subflow state machine.

These drive a real subflow over a real link pair via a minimal MPTCP
connection, then assert on the sender-side machinery: RTT sampling, loss
recovery, RTO behaviour, and the idle congestion-window reset.
"""

import pytest

from repro.tcp.subflow import DUP_THRESHOLD, INITIAL_WINDOW
from tests.conftest import build_connection, drain


def single_path_conn(sim, **kw):
    conn = build_connection(sim, path_specs=((10.0, 0.01),), **kw)
    return conn, conn.subflows[0]


class TestSending:
    def test_simple_transfer_delivers_all_bytes(self, sim):
        conn, sf = single_path_conn(sim)
        conn.write(100_000)
        drain(sim)
        assert conn.delivered_bytes == 100_000
        assert sf.stats.payload_bytes_sent == 100_000

    def test_send_respects_initial_window(self, sim):
        conn, sf = single_path_conn(sim)
        conn.write(10_000_000)
        # Before any ACK returns, flight is capped at IW.
        sim.run(until=0.001)
        assert sf.flight == INITIAL_WINDOW

    def test_send_segment_validates_payload(self, sim):
        conn, sf = single_path_conn(sim)
        with pytest.raises(ValueError):
            sf.send_segment(0, 0)
        with pytest.raises(ValueError):
            sf.send_segment(0, sf.mss + 1)

    def test_send_without_window_space_raises(self, sim):
        conn, sf = single_path_conn(sim)
        conn.write(10_000_000)
        sim.run(until=0.001)
        assert not sf.can_send()
        with pytest.raises(RuntimeError):
            sf.send_segment(999_999_999, 100)

    def test_rtt_sampled_from_acks(self, sim):
        conn, sf = single_path_conn(sim)
        conn.write(1448)
        drain(sim)
        assert sf.rtt.samples == 1
        # One-way 10 ms each direction plus serialization.
        assert 0.02 < sf.rtt.srtt < 0.03

    def test_cwnd_grows_in_slow_start(self, sim):
        conn, sf = single_path_conn(sim)
        conn.write(200_000)
        drain(sim)
        assert sf.cwnd > INITIAL_WINDOW

    def test_outstanding_bytes_returns_to_zero(self, sim):
        conn, sf = single_path_conn(sim)
        conn.write(50_000)
        drain(sim)
        assert sf.outstanding_bytes == 0
        assert sf.flight == 0

    def test_bytes_acked_matches_bytes_sent(self, sim):
        conn, sf = single_path_conn(sim)
        conn.write(75_000)
        drain(sim)
        assert sf.stats.bytes_acked == 75_000


class TestEstablishment:
    def test_handshake_delays_secondary_subflow(self, sim):
        conn = build_connection(sim, handshake_delays=True)
        primary, secondary = conn.subflows
        assert primary.established_at < secondary.established_at
        assert not secondary.established

    def test_unestablished_subflow_cannot_send(self, sim):
        conn = build_connection(sim, handshake_delays=True)
        assert not conn.subflows[1].can_send()

    def test_data_flows_after_establishment(self, sim):
        conn = build_connection(sim, handshake_delays=True)
        conn.write(2_000_000)
        drain(sim)
        assert conn.delivered_bytes == 2_000_000
        assert conn.subflows[1].stats.payload_bytes_sent > 0


class TestLossRecovery:
    def test_queue_drop_triggers_fast_retransmit(self, sim):
        # Tiny queue forces drops during slow start.
        conn = build_connection(sim, path_specs=((10.0, 0.02),))
        sf = conn.subflows[0]
        sf.path.forward.queue_bytes = 5_000
        conn.write(2_000_000)
        drain(sim)
        assert conn.delivered_bytes == 2_000_000
        assert sf.stats.fast_retransmits > 0
        assert sf.stats.segments_retransmitted > 0

    def test_loss_halves_cwnd_once_per_recovery(self, sim):
        conn = build_connection(sim, path_specs=((10.0, 0.02),))
        sf = conn.subflows[0]
        sf.path.forward.queue_bytes = 8_000
        conn.write(500_000)
        drain(sim)
        # Multiple drops in one window must count as one recovery episode.
        assert sf.stats.fast_retransmits <= sf.path.forward.stats.packets_dropped_queue

    def test_dup_threshold_respected(self):
        assert DUP_THRESHOLD == 3

    def test_heavy_loss_still_completes_via_rto(self, sim):
        import random as _random

        from repro.core.spec import SchedulerSpec, build
        from repro.mptcp.connection import ConnectionConfig, MptcpConnection
        from repro.net.link import Link
        from repro.net.path import Path

        forward = Link(sim, 10e6, 0.01, 100_000, loss_rate=0.2, rng=_random.Random(3))
        reverse = Link(sim, 10e6, 0.01, 100_000)
        path = Path("lossy", forward, reverse)
        conn = MptcpConnection(
            sim, [path], build(SchedulerSpec.of("minrtt")),
            config=ConnectionConfig(handshake_delays=False),
        )
        conn.write(300_000)
        drain(sim, limit=600.0)
        assert conn.delivered_bytes == 300_000


class TestRto:
    def test_rto_fires_when_all_acks_lost(self, sim):
        conn, sf = single_path_conn(sim)
        # Kill the forward link before writing: the first flight vanishes.
        original_send = sf.path.forward.send
        sf.path.forward.send = lambda pkt, cb: False
        conn.write(5 * 1448)
        sim.run(until=0.5)
        sf.path.forward.send = original_send
        drain(sim)
        assert sf.stats.rto_events >= 1
        assert conn.delivered_bytes == 5 * 1448

    def test_rto_backoff_grows_on_repeat(self, sim):
        conn, sf = single_path_conn(sim)
        blocked = {"on": True}
        original_send = sf.path.forward.send

        def flaky(pkt, cb):
            if blocked["on"]:
                return False
            return original_send(pkt, cb)

        sf.path.forward.send = flaky
        conn.write(1448)
        sim.run(until=8.0)
        assert sf.stats.rto_events >= 2
        blocked["on"] = False
        drain(sim)
        assert conn.delivered_bytes == 1448


class TestIdleReset:
    def test_idle_reset_collapses_cwnd(self, sim):
        conn, sf = single_path_conn(sim)
        conn.write(400_000)
        drain(sim)
        grown = sf.cwnd
        assert grown > INITIAL_WINDOW
        # Long idle period, then more data.
        sim.run(until=sim.now + 30.0)
        conn.write(1448)
        assert sf.cwnd == INITIAL_WINDOW
        assert sf.stats.idle_resets == 1
        assert grown * 0.74 < sf.ssthresh  # 3/4 of the decayed window kept

    def test_idle_reset_disabled(self, sim):
        conn, sf = single_path_conn(sim, idle_reset_enabled=False)
        conn.write(400_000)
        drain(sim)
        grown = sf.cwnd
        sim.run(until=sim.now + 30.0)
        conn.write(1448)
        assert sf.cwnd == grown
        assert sf.stats.idle_resets == 0

    def test_short_gap_does_not_reset(self, sim):
        conn, sf = single_path_conn(sim)
        conn.write(400_000)
        sim.run()  # drains everything, including the final no-op RTO event
        grown = sf.cwnd
        # Make the last transmission appear 100 ms ago -- below the RTO
        # (srtt ~ 21 ms + 200 ms variance floor).
        sf._last_send_time = sim.now - 0.1
        conn.write(1448)
        assert sf.cwnd == grown
        assert sf.stats.idle_resets == 0

    def test_iw_resets_counts_idle_and_rto(self, sim):
        conn, sf = single_path_conn(sim)
        sf.stats.idle_resets = 3
        sf.stats.rto_events = 2
        assert sf.stats.iw_resets == 5


class TestPenalize:
    def test_penalize_halves_cwnd(self, sim):
        conn, sf = single_path_conn(sim)
        sf.cwnd = 40.0
        sf.penalize()
        assert sf.cwnd == pytest.approx(20.0)
        assert sf.stats.penalizations == 1

    def test_penalize_floors_at_one(self, sim):
        conn, sf = single_path_conn(sim)
        sf.cwnd = 1.0
        sf.penalize()
        assert sf.cwnd >= 1.0
