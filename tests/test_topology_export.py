"""Tests for multi-hop topologies."""

import pytest

from repro.core.spec import SchedulerSpec, build
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.packet import Packet
from repro.net.topology import CompositeForward, LinkSpec, chain_path, shared_bottleneck


class TestCompositeForward:
    def test_requires_hops(self):
        with pytest.raises(ValueError):
            CompositeForward([])

    def test_bottleneck_rate_and_total_delay(self, sim):
        chain = CompositeForward([
            LinkSpec(10.0, 0.01).build(sim, None, "h0"),
            LinkSpec(2.0, 0.03).build(sim, None, "h1"),
        ])
        assert chain.rate_bps == 2e6
        assert chain.delay == pytest.approx(0.04)

    def test_packet_traverses_all_hops(self, sim):
        chain = CompositeForward([
            LinkSpec(10.0, 0.01).build(sim, None, "h0"),
            LinkSpec(10.0, 0.02).build(sim, None, "h1"),
        ])
        arrivals = []
        chain.send(Packet(size=1250), lambda p: arrivals.append(sim.now))
        sim.run()
        # Two serializations (1 ms each) + 30 ms propagation.
        assert arrivals == [pytest.approx(0.032)]

    def test_drop_at_second_hop_counts(self, sim):
        first = LinkSpec(100.0, 0.0, queue_bytes=1_000_000).build(sim, None, "h0")
        second = LinkSpec(0.1, 0.0, queue_bytes=1_500).build(sim, None, "h1")
        chain = CompositeForward([first, second])
        delivered = []
        for _ in range(10):
            chain.send(Packet(size=1000), lambda p: delivered.append(p))
        sim.run()
        assert chain.total_drops() > 0
        assert len(delivered) + chain.total_drops() == 10

    def test_set_rate_touches_entry_hop(self, sim):
        chain = CompositeForward([
            LinkSpec(10.0, 0.01).build(sim, None, "h0"),
            LinkSpec(20.0, 0.01).build(sim, None, "h1"),
        ])
        chain.set_rate(5e6)
        assert chain.hops[0].rate_bps == 5e6
        assert chain.hops[1].rate_bps == 20e6


class TestChainPath:
    def test_mptcp_over_multihop_path_completes(self, sim):
        path = chain_path(
            sim, "multihop",
            [LinkSpec(10.0, 0.005), LinkSpec(5.0, 0.01), LinkSpec(8.0, 0.005)],
        )
        conn = MptcpConnection(
            sim, [path], build(SchedulerSpec.of("minrtt")),
            config=ConnectionConfig(handshake_delays=False),
        )
        conn.write(1_000_000)
        sim.run(until=60.0)
        assert conn.delivered_bytes == 1_000_000

    def test_goodput_limited_by_bottleneck_hop(self, sim):
        path = chain_path(
            sim, "multihop",
            [LinkSpec(50.0, 0.005), LinkSpec(2.0, 0.01)],
        )
        conn = MptcpConnection(
            sim, [path], build(SchedulerSpec.of("minrtt")),
            config=ConnectionConfig(handshake_delays=False),
        )
        conn.write(2_000_000)
        sim.run(until=120.0)
        elapsed = max(conn.receiver.last_arrival_by_subflow.values())
        goodput_mbps = 2_000_000 * 8 / elapsed / 1e6
        assert goodput_mbps <= 2.0


class TestSharedBottleneck:
    def test_two_subflows_contend_for_shared_link(self, sim):
        paths = shared_bottleneck(
            sim,
            access_a=LinkSpec(20.0, 0.005, name="a"),
            access_b=LinkSpec(20.0, 0.02, name="b"),
            bottleneck=LinkSpec(5.0, 0.01, name="bn"),
        )
        conn = MptcpConnection(
            sim, paths, build(SchedulerSpec.of("minrtt")),
            config=ConnectionConfig(handshake_delays=False),
        )
        conn.write(3_000_000)
        sim.run(until=120.0)
        assert conn.delivered_bytes == 3_000_000
        elapsed = max(conn.receiver.last_arrival_by_subflow.values())
        goodput_mbps = 3_000_000 * 8 / elapsed / 1e6
        # Two subflows cannot exceed the single 5 Mbps shared bottleneck.
        assert goodput_mbps <= 5.0

    def test_coupled_cc_yields_to_bottleneck_capacity(self, sim):
        """With coupled CC over a shared bottleneck, the aggregate stays
        near what a single flow would get (no 2x grab)."""
        paths = shared_bottleneck(
            sim,
            access_a=LinkSpec(20.0, 0.005, name="a"),
            access_b=LinkSpec(20.0, 0.006, name="b"),
            bottleneck=LinkSpec(4.0, 0.01, name="bn"),
        )
        conn = MptcpConnection(
            sim, paths, build(SchedulerSpec.of("roundrobin")),
            config=ConnectionConfig(handshake_delays=False, congestion_control="coupled"),
        )
        conn.write(2_000_000)
        sim.run(until=120.0)
        assert conn.delivered_bytes == 2_000_000
