"""Tests for multiple connections sharing the same links (contention).

The Web workload runs six MPTCP connections over one pair of regulated
interfaces; these tests pin the sharing behaviour the browser model
relies on.
"""


from repro.apps.http import HttpSession
from repro.core.spec import SchedulerSpec, build
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.profiles import lte_config, make_path, wifi_config
from repro.sim.engine import Simulator
from tests.conftest import build_path, drain


def shared_link_connections(sim, count, rate_mbps=5.0):
    paths = [
        build_path(sim, rate_mbps=rate_mbps, one_way_delay=0.01, name="shared-a"),
        build_path(sim, rate_mbps=rate_mbps, one_way_delay=0.05, name="shared-b"),
    ]
    conns = []
    for index in range(count):
        conns.append(MptcpConnection(
            sim, paths, build(SchedulerSpec.of("minrtt")),
            config=ConnectionConfig(handshake_delays=False),
            name=f"c{index}",
        ))
    return paths, conns


class TestSharedLinks:
    def test_two_connections_share_capacity(self, sim):
        paths, (a, b) = shared_link_connections(sim, 2)
        a.write(2_000_000)
        b.write(2_000_000)
        drain(sim, limit=120.0)
        assert a.delivered_bytes == 2_000_000
        assert b.delivered_bytes == 2_000_000

    def test_sharing_slows_each_flow_down(self, sim):
        # Alone: ~10 Mbps aggregate for one connection.
        paths, (alone,) = shared_link_connections(sim, 1)
        alone.write(2_000_000)
        sim.run(until=300.0)
        alone_time = max(alone.receiver.last_arrival_by_subflow.values())

        sim2 = Simulator()
        paths2, (a, b) = shared_link_connections(sim2, 2)
        a.write(2_000_000)
        b.write(2_000_000)
        sim2.run(until=300.0)
        shared_time = max(
            max(conn.receiver.last_arrival_by_subflow.values()) for conn in (a, b)
        )
        assert shared_time > alone_time * 1.25

    def test_streams_do_not_corrupt_each_other(self, sim):
        """Each connection's receiver sees exactly its own byte stream."""
        paths, conns = shared_link_connections(sim, 4)
        sizes = [500_000 + i * 100_000 for i in range(4)]
        for conn, size in zip(conns, sizes):
            conn.write(size)
        drain(sim, limit=300.0)
        for conn, size in zip(conns, sizes):
            assert conn.receiver.expected_dsn == size
            assert conn.receiver.buffered_bytes == 0

    def test_http_sessions_on_shared_links(self, sim):
        paths, conns = shared_link_connections(sim, 3)
        sessions = [HttpSession(sim, conn) for conn in conns]
        done = []
        for index, session in enumerate(sessions):
            session.get(100_000, lambda r, i=index: done.append(i))
        drain(sim, limit=120.0)
        assert sorted(done) == [0, 1, 2]

    def test_queue_drops_under_heavy_contention_recovered(self, sim):
        paths, conns = shared_link_connections(sim, 6, rate_mbps=2.0)
        for conn in conns:
            conn.write(400_000)
        drain(sim, limit=300.0)
        total_drops = paths[0].forward.stats.packets_dropped_queue
        for conn in conns:
            assert conn.delivered_bytes == 400_000
        # With six slow-start bursts sharing a 2 Mbps link, drops happen
        # and are all recovered.
        assert total_drops > 0


class TestTestbedProfilesShared:
    def test_web_like_contention_on_testbed_paths(self, sim):
        paths = [make_path(sim, wifi_config(1.0)), make_path(sim, lte_config(10.0))]
        conns = [
            MptcpConnection(
                sim, paths, build(SchedulerSpec.of("ecf")),
                config=ConnectionConfig(handshake_delays=False),
            )
            for _ in range(6)
        ]
        for conn in conns:
            conn.write(150_000)
        drain(sim, limit=120.0)
        for conn in conns:
            assert conn.delivered_bytes == 150_000
