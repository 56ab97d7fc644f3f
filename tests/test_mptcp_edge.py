"""Edge cases of the MPTCP connection: receive-window extremes, stale
DATA_ACKs, interleaved writes, and sequencing invariants."""

import pytest

from repro.core.base import Scheduler
from tests.conftest import build_connection, drain


class TestReceiveWindowExtremes:
    def test_tiny_receive_buffer_still_completes(self, sim):
        conn = build_connection(
            sim,
            path_specs=((10.0, 0.005), (1.0, 0.1)),
            recv_buffer_bytes=30_000,
        )
        conn.write(1_000_000)
        drain(sim, limit=600.0)
        assert conn.delivered_bytes == 1_000_000

    def test_zero_advertised_window_blocks_assignment(self, sim):
        conn = build_connection(sim)
        conn.peer_recv_window = 0
        conn.write(100_000)
        sim.run(until=0.01)
        assert conn.bytes_outstanding == 0

    def test_window_reopens_on_ack_with_fresh_window(self, sim):
        conn = build_connection(sim)
        conn.peer_recv_window = 0
        conn.write(100_000)
        sim.run(until=0.01)
        # Simulate the window update a real ACK would deliver.
        conn.peer_recv_window = conn.config.recv_buffer_bytes
        conn.try_send()
        drain(sim)
        assert conn.delivered_bytes == 100_000


class TestDataAckHandling:
    def test_stale_data_ack_does_not_regress_una(self, sim):
        conn = build_connection(sim)
        conn.write(500_000)
        sim.run(until=1.0)
        una = conn.conn_una
        assert una > 0
        # Deliver a stale (smaller) data_ack through the handler.
        from repro.net.packet import Packet
        stale = Packet(size=60, is_ack=True, ack_seq=-1, data_ack=0,
                       recv_window=conn.config.recv_buffer_bytes)
        conn._on_subflow_ack(conn.subflows[0], stale, newly_acked=False)
        assert conn.conn_una == una

    def test_conn_una_reaches_total_on_completion(self, sim):
        conn = build_connection(sim)
        conn.write(300_000)
        drain(sim)
        assert conn.conn_una == 300_000
        assert conn.bytes_outstanding == 0
        assert not conn._outstanding_dsn


class TestWriteSequencing:
    def test_many_interleaved_writes(self, sim):
        conn = build_connection(sim)
        total = 0
        for index in range(20):
            size = 10_000 + index * 3_000
            total += size
            sim.schedule(index * 0.2, conn.write, size)
        drain(sim)
        assert conn.delivered_bytes == total
        assert conn.receiver.expected_dsn == total

    def test_write_during_active_transfer(self, sim):
        conn = build_connection(sim)
        conn.write(500_000)
        sim.run(until=0.05)
        conn.write(500_000)
        drain(sim)
        assert conn.delivered_bytes == 1_000_000

    def test_byte_conservation_across_subflows(self, sim):
        conn = build_connection(sim, path_specs=((10.0, 0.01), (5.0, 0.03), (1.0, 0.1)))
        conn.write(2_000_000)
        drain(sim)
        sent = sum(conn.payload_sent_by_subflow().values())
        # Reinjections can duplicate payload; never less than the total.
        assert sent >= 2_000_000
        assert conn.receiver.expected_dsn == 2_000_000


class TestSchedulerErrors:
    def test_broken_scheduler_detected(self, sim):
        """A scheduler returning a full subflow is a contract violation."""
        conn = build_connection(sim)

        class Broken(Scheduler):
            name = "broken"

            def attach(self, conn):
                pass

            def select(self, conn):
                subflow = conn.subflows[0]
                subflow._in_flight = int(subflow.cwnd)  # force full
                return subflow

        conn.scheduler = Broken()
        with pytest.raises(RuntimeError):
            conn.write(100_000)

    def test_broken_scheduler_refused_at_rto_reinjection(self, sim):
        """The reinjection site refuses the same answer try_send refuses,
        instead of silently stalling the reinjection queue."""
        conn = build_connection(sim)
        conn.write(4 * conn.mss)  # all assigned now: try_send selects no more
        stranded = conn.subflows[0]
        assert conn.unassigned_bytes == 0 and stranded.outstanding_segments

        class Broken(Scheduler):
            name = "broken"

            def select(self, conn):
                subflow = conn.subflows[1]
                subflow._in_flight = int(subflow.cwnd)  # force full
                return subflow

        conn.scheduler = Broken()
        with pytest.raises(RuntimeError, match="without window space"):
            conn._on_subflow_rto(stranded)
