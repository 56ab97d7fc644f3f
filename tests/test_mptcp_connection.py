"""Tests for the MPTCP meta-connection."""

import pytest

from repro.core.spec import SchedulerSpec, build
from repro.experiments.runner import StreamingRunConfig, run_streaming
from repro.mptcp.connection import MptcpConnection
from tests.conftest import build_connection, build_path, drain


class TestBasics:
    def test_requires_at_least_one_path(self, sim):
        with pytest.raises(ValueError):
            MptcpConnection(sim, [], build(SchedulerSpec.of("minrtt")))

    def test_write_validates_size(self, sim):
        conn = build_connection(sim)
        with pytest.raises(ValueError):
            conn.write(0)

    def test_two_path_transfer_completes(self, sim):
        conn = build_connection(sim)
        conn.write(3_000_000)
        drain(sim)
        assert conn.delivered_bytes == 3_000_000

    def test_both_subflows_carry_traffic(self, sim):
        conn = build_connection(sim)
        conn.write(5_000_000)
        drain(sim)
        by_subflow = conn.payload_sent_by_subflow()
        assert all(v > 0 for v in by_subflow.values())
        assert sum(by_subflow.values()) >= 5_000_000

    def test_delivery_is_gapless_and_ordered(self, sim):
        conn = build_connection(sim)
        total = 2_000_000
        seen = []
        conn.set_deliver_callback(seen.append)
        conn.write(total)
        drain(sim)
        assert sum(seen) == total
        # The receiver's expected DSN equals the byte total.
        assert conn.receiver.expected_dsn == total

    def test_scheduler_attached_once(self, sim):
        scheduler = build(SchedulerSpec.of("minrtt"))
        paths = [build_path(sim)]
        MptcpConnection(sim, paths, scheduler)
        with pytest.raises(RuntimeError):
            MptcpConnection(sim, paths, scheduler)

    def test_unassigned_bytes_exposed_for_ecf(self, sim):
        conn = build_connection(sim)
        conn.write(10_000_000)
        sim.run(until=0.0001)
        # IW x 2 subflows assigned; the rest still queued.
        assert conn.unassigned_bytes > 9_000_000


class TestSendWindow:
    def test_outstanding_bounded_by_send_window(self, sim):
        conn = build_connection(sim, send_window_bytes=100_000)
        conn.write(10_000_000)
        sim.run(until=5.0)
        assert conn.bytes_outstanding <= 100_000

    def test_window_limited_predicate(self, sim):
        conn = build_connection(sim, send_window_bytes=20_000)
        assert not conn.window_limited()
        conn.write(10_000_000)
        sim.run(until=0.001)
        assert conn.window_limited()

    def test_effective_window_respects_peer(self, sim):
        conn = build_connection(sim)
        conn.peer_recv_window = 5_000
        assert conn.effective_send_window == 5_000

    def test_transfer_completes_despite_small_window(self, sim):
        conn = build_connection(sim, send_window_bytes=50_000)
        conn.write(1_000_000)
        drain(sim)
        assert conn.delivered_bytes == 1_000_000


class TestPenalizationMechanism:
    def heterogeneous_conn(self, sim, **kw):
        # Slow path with fat pipe queue + tiny receive buffer encourages
        # receive-window blocking behind slow-path segments.
        return build_connection(
            sim,
            path_specs=((10.0, 0.005), (0.5, 0.3)),
            recv_buffer_bytes=120_000,
            send_window_bytes=4_000_000,
            **kw,
        )

    def test_reinjection_triggers_on_recv_window_blocking(self, sim):
        conn = self.heterogeneous_conn(sim, scheduler_name="roundrobin")
        conn.write(3_000_000)
        drain(sim, limit=600.0)
        assert conn.delivered_bytes == 3_000_000
        assert conn.reinjections > 0

    def test_penalization_halves_slow_subflow(self, sim):
        conn = self.heterogeneous_conn(sim, scheduler_name="roundrobin")
        conn.write(3_000_000)
        drain(sim, limit=600.0)
        assert conn.subflows[1].stats.penalizations > 0

    def test_penalization_can_be_disabled(self, sim):
        conn = self.heterogeneous_conn(
            sim, scheduler_name="roundrobin", penalization_enabled=False
        )
        conn.write(3_000_000)
        drain(sim, limit=600.0)
        assert conn.reinjections == 0
        assert conn.delivered_bytes == 3_000_000

    def test_duplicate_reinjection_not_double_counted(self, sim):
        conn = self.heterogeneous_conn(sim, scheduler_name="roundrobin")
        conn.write(2_000_000)
        drain(sim, limit=600.0)
        # Receiver ignores duplicates; delivered bytes exact.
        assert conn.delivered_bytes == 2_000_000


class TestHeadlineCellWindow:
    """Which window binds on the paper's headline cell (WiFi 0.3 / LTE 8.6
    Mbps, seed 0): the peer's receive window, never the 4 MB local send
    window.  A pass is counted by wrapping ``recv_window_limited``, which
    only the window-limited branch of ``try_send`` calls (penalization is
    on by default)."""

    def test_every_window_limited_pass_is_receive_window_limited(self, monkeypatch):
        original = MptcpConnection.recv_window_limited
        passes = {}
        for scheduler in ("minrtt", "ecf", "blest", "daps"):
            seen = []

            def counted(conn):
                limited = original(conn)
                seen.append(
                    limited and conn.peer_recv_window < conn.config.send_window_bytes
                )
                return limited

            monkeypatch.setattr(MptcpConnection, "recv_window_limited", counted)
            run_streaming(
                StreamingRunConfig(
                    scheduler=scheduler, wifi_mbps=0.3, lte_mbps=8.6, video_duration=20.0
                )
            )
            assert seen and all(seen), scheduler
            passes[scheduler] = len(seen)
        # Measured: minrtt 446, ecf 242, blest 433, daps 446.
        assert passes["ecf"] < passes["minrtt"], passes


class TestCallbacks:
    def test_set_deliver_callback_rewires(self, sim):
        conn = build_connection(sim)
        first, second = [], []
        conn.set_deliver_callback(first.append)
        conn.set_deliver_callback(second.append)
        conn.write(1448)
        drain(sim)
        assert not first
        assert sum(second) == 1448

    def test_scheduler_wait_counter(self, sim):
        conn = build_connection(sim, scheduler_name="ecf")
        conn.write(5_000_000)
        drain(sim)
        # The connection counts every answer, waits included.
        assert 0 <= conn.scheduler.waits <= conn.scheduler.decisions
        assert conn.scheduler.decisions > 0
        assert conn.delivered_bytes == 5_000_000
