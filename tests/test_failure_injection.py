"""Failure-injection tests: link outages and wireless jitter.

A production-quality transport must survive an interface dying mid-flow
(recovering through the other path and, after the outage, via RTO) and
must tolerate within-path reordering from MAC-layer jitter without
collapsing into spurious retransmissions.
"""

import random

import pytest

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.path import Path
from repro.core.spec import SchedulerSpec, build
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from tests.conftest import build_connection, drain


class TestLinkOutage:
    def test_down_link_drops_arrivals(self, sim):
        link = Link(sim, 1e6, 0.01, 10_000)
        link.set_down()
        delivered = []
        assert not link.send(Packet(size=100), delivered.append)
        sim.run()
        assert delivered == []
        assert link.stats.packets_dropped_outage == 1

    def test_mid_flight_packet_lost_on_outage(self, sim):
        link = Link(sim, 1e6, 0.05, 10_000)
        delivered = []
        link.send(Packet(size=1250), delivered.append)  # 10 ms serialization
        sim.schedule(0.005, link.set_down)  # down before tx completes
        sim.run()
        assert delivered == []
        assert link.stats.packets_dropped_outage == 1

    def test_link_recovers_after_up(self, sim):
        link = Link(sim, 1e6, 0.01, 10_000)
        link.set_down()
        link.set_down(False)
        delivered = []
        assert link.send(Packet(size=100), delivered.append)
        sim.run()
        assert len(delivered) == 1

    def test_mptcp_survives_secondary_outage(self, sim):
        """Kill the secondary path mid-transfer: everything still arrives."""
        conn = build_connection(sim)
        secondary = conn.subflows[1].path
        conn.write(3_000_000)
        sim.schedule(0.5, secondary.forward.set_down)
        sim.schedule(0.5, secondary.reverse.set_down)
        drain(sim, limit=600.0)
        assert conn.delivered_bytes == 3_000_000
        # Recovery went through RTO on the dead subflow.
        assert conn.subflows[1].stats.rto_events >= 1

    def test_mptcp_survives_transient_primary_outage(self, sim):
        conn = build_connection(sim)
        primary = conn.subflows[0].path
        conn.write(3_000_000)
        sim.schedule(0.3, primary.forward.set_down)
        sim.schedule(2.3, primary.forward.set_down, False)
        drain(sim, limit=600.0)
        assert conn.delivered_bytes == 3_000_000
        # The primary came back and carried traffic again afterwards.
        assert conn.subflows[0].stats.last_data_sent_at > 2.3

    def test_total_outage_then_recovery(self, sim):
        """Both paths down: the connection stalls, then fully recovers."""
        conn = build_connection(sim)
        conn.write(1_000_000)
        for sf in conn.subflows:
            sim.schedule(0.2, sf.path.forward.set_down)
            sim.schedule(3.0, sf.path.forward.set_down, False)
        drain(sim, limit=600.0)
        assert conn.delivered_bytes == 1_000_000


class TestJitter:
    def test_jitter_requires_rng(self, sim):
        with pytest.raises(ValueError):
            Link(sim, 1e6, 0.01, 10_000, jitter=0.01)

    def test_jitter_rejects_negative(self, sim):
        with pytest.raises(ValueError):
            Link(sim, 1e6, 0.01, 10_000, jitter=-1.0, rng=random.Random(0))

    def test_jitter_spreads_delivery_times(self, sim):
        link = Link(sim, 100e6, 0.01, 1_000_000, jitter=0.05, rng=random.Random(1))
        arrivals = []
        for _ in range(50):
            link.send(Packet(size=100), lambda p: arrivals.append(sim.now))
        sim.run()
        spread = max(arrivals) - min(arrivals)
        assert spread > 0.01  # far larger than serialization alone

    def test_jitter_can_reorder_within_link(self, sim):
        link = Link(sim, 100e6, 0.001, 1_000_000, jitter=0.05, rng=random.Random(2))
        order = []
        for index in range(50):
            link.send(Packet(size=100, seq=index), lambda p: order.append(p.seq))
        sim.run()
        assert order != sorted(order)

    def test_transfer_completes_over_jittery_path(self, sim):
        rng = random.Random(3)
        forward = Link(sim, 10e6, 0.02, 300_000, jitter=0.01, rng=rng)
        reverse = Link(sim, 10e6, 0.02, 300_000)
        path = Path("jittery", forward, reverse)
        conn = MptcpConnection(
            sim, [path], build(SchedulerSpec.of("minrtt")),
            config=ConnectionConfig(handshake_delays=False),
        )
        conn.write(2_000_000)
        drain(sim, limit=300.0)
        assert conn.delivered_bytes == 2_000_000
        # Some spurious retransmissions are expected (reordering beyond
        # the dupack threshold), but they must stay a small fraction.
        sf = conn.subflows[0]
        assert sf.stats.segments_retransmitted < sf.stats.segments_sent * 0.2
        # Each packet's jitter is drawn at its finish, as when the link had
        # a serialisation-end event per packet: the identical run.
        assert (sf.stats.segments_sent, sf.stats.segments_retransmitted) == (1388, 6)
        assert max(conn.receiver.ooo_delays) == 0.00771150883696059
