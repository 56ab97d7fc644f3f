"""Tests for the link model: serialization, queueing, drops, loss."""

import dataclasses
import math
import random

import pytest

from repro.apps.bulk import BulkDownloadSpec
from repro.experiments.spec import run_spec
from repro.net.link import Link
from repro.net.profiles import lte_config, wifi_config
from repro.net.packet import Packet


def make_link(sim, rate_bps=1e6, delay=0.01, queue_bytes=10_000, **kw):
    return Link(sim, rate_bps, delay, queue_bytes, **kw)


class TestValidation:
    def test_rejects_nonpositive_rate(self, sim):
        with pytest.raises(ValueError):
            make_link(sim, rate_bps=0)

    def test_rejects_negative_delay(self, sim):
        with pytest.raises(ValueError):
            make_link(sim, delay=-1)

    def test_rejects_nonpositive_queue(self, sim):
        with pytest.raises(ValueError):
            make_link(sim, queue_bytes=0)

    def test_rejects_invalid_loss_rate(self, sim):
        with pytest.raises(ValueError):
            make_link(sim, loss_rate=1.5, rng=random.Random(0))

    def test_loss_requires_rng(self, sim):
        with pytest.raises(ValueError):
            make_link(sim, loss_rate=0.1)

    @pytest.mark.parametrize("rate", [0, -1.0, math.inf, math.nan])
    def test_constructor_rejects_bad_rates(self, sim, rate):
        with pytest.raises(ValueError):
            make_link(sim, rate_bps=rate)

    @pytest.mark.parametrize("rate", [0, -5e6, math.inf, math.nan])
    def test_set_rate_rejects_bad_rates(self, sim, rate):
        link = make_link(sim)
        with pytest.raises(ValueError):
            link.set_rate(rate)
        assert link.rate_bps == 1e6  # unchanged after the rejected update

    @pytest.mark.parametrize("field", ["delay", "jitter"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_constructor_rejects_bad_delay_and_jitter(self, sim, field, value):
        """A NaN delay would deliver at ``now == nan``, an infinite one
        never: both are refused with the negative ones."""
        with pytest.raises(ValueError, match=field):
            make_link(sim, rng=random.Random(0), **{field: value})

    def test_a_spec_with_a_nan_one_way_delay_is_refused(self):
        spec = BulkDownloadSpec(
            scheduler="minrtt",
            path_configs=(
                dataclasses.replace(wifi_config(2.0), one_way_delay=math.nan),
                lte_config(8.6),
            ),
            size=64_000,
            seed=1,
        )
        with pytest.raises(ValueError, match="delay"):
            run_spec(spec)

    def test_set_rate_accepts_finite_positive(self, sim):
        link = make_link(sim)
        link.set_rate(2.5e6)
        assert link.rate_bps == 2.5e6


class TestTiming:
    def test_delivery_time_is_serialization_plus_propagation(self, sim):
        link = make_link(sim, rate_bps=1e6, delay=0.05)
        arrivals = []
        link.send(Packet(size=1250), lambda p: arrivals.append(sim.now))
        sim.run()
        # 1250 bytes at 1 Mbps = 10 ms, plus 50 ms propagation.
        assert arrivals == [pytest.approx(0.06)]

    def test_back_to_back_packets_serialize_sequentially(self, sim):
        link = make_link(sim, rate_bps=1e6, delay=0.0)
        arrivals = []
        for _ in range(3):
            link.send(Packet(size=1250), lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(0.01), pytest.approx(0.02), pytest.approx(0.03)]

    def test_rate_change_applies_to_next_transmission(self, sim):
        link = make_link(sim, rate_bps=1e6, delay=0.0)
        arrivals = []
        link.send(Packet(size=1250), lambda p: arrivals.append(sim.now))
        link.send(Packet(size=1250), lambda p: arrivals.append(sim.now))
        link.set_rate(2e6)  # second packet transmits at the new rate
        sim.run()
        assert arrivals[0] == pytest.approx(0.01)
        assert arrivals[1] == pytest.approx(0.015)

    def test_idle_link_transmits_immediately(self, sim):
        link = make_link(sim, rate_bps=1e6, delay=0.0)
        arrivals = []
        link.send(Packet(size=1250), lambda p: arrivals.append(sim.now))
        sim.run()
        link.send(Packet(size=1250), lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals[1] == pytest.approx(arrivals[0] + 0.01)

    def test_transit_estimate(self, sim):
        link = make_link(sim, rate_bps=1e6, delay=0.05)
        assert link.transit_estimate(1250) == pytest.approx(0.06)

    def test_transit_estimate_infinite_while_down(self, sim):
        link = make_link(sim)
        link.set_down()
        assert link.transit_estimate(1250) == math.inf

    def test_transit_estimate_restored_after_outage(self, sim):
        link = make_link(sim, rate_bps=1e6, delay=0.05)
        link.set_down()
        link.set_down(False)
        assert link.transit_estimate(1250) == pytest.approx(0.06)


class TestQueueing:
    def test_full_queue_drops_packet(self, sim):
        link = make_link(sim, queue_bytes=2500)
        delivered = []
        # First begins transmission; next two fill the 2500-byte queue.
        for _ in range(3):
            assert link.send(Packet(size=1250), lambda p: delivered.append(p))
        # Fourth does not fit.
        assert not link.send(Packet(size=1250), lambda p: delivered.append(p))
        sim.run()
        assert len(delivered) == 3
        assert link.stats.packets_dropped_queue == 1

    def test_queue_drains_in_fifo_order(self, sim):
        link = make_link(sim, delay=0.0)
        order = []
        for i in range(4):
            link.send(Packet(size=100, seq=i), lambda p: order.append(p.seq))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_queued_bytes_tracks_waiting_packets(self, sim):
        link = make_link(sim)
        link.send(Packet(size=1000), lambda p: None)  # transmitting
        link.send(Packet(size=1000), lambda p: None)  # queued
        assert link.queued_bytes == 1000
        assert link.queue_depth == 1

    def test_busy_flag(self, sim):
        link = make_link(sim)
        assert not link.busy
        link.send(Packet(size=100), lambda p: None)
        assert link.busy
        sim.run()
        assert not link.busy

    def test_on_drop_callback_fires(self, sim):
        link = make_link(sim, queue_bytes=100)
        dropped = []
        link.on_drop = dropped.append
        link.send(Packet(size=100), lambda p: None)
        link.send(Packet(size=101), lambda p: None)  # too big for queue
        assert len(dropped) == 1


class TestVirtualTime:
    """Same-instant behaviour of the one-event-per-packet link, pinned on
    binary-exact floats: 1000 bytes at 8000 bps serialise in exactly 1 s."""

    @staticmethod
    def _sender(sim, link, arrivals):
        def deliver(packet):
            arrivals.append((packet.seq, sim.now))

        def send(seq):
            return link.send(Packet(size=1000, seq=seq), deliver)

        return send

    def test_arrival_at_a_finish_finds_the_queue_without_the_departed(self, sim):
        link = make_link(sim, rate_bps=8000.0, delay=0.5, queue_bytes=1000)
        arrivals, seen = [], []
        send = self._sender(sim, link, arrivals)
        send(0)  # transmits over [0, 1)
        send(1)  # fills the one-packet queue; starts at 1
        # At t = 1 packet 0 finishes and packet 1 starts: the departure
        # precedes this arrival, so the queue is empty and 2 fits.
        sim.schedule_at(1.0, lambda: seen.append((link.queue_depth, link.queued_bytes, send(2))))
        sim.run()
        assert seen == [(0, 0, True)]
        assert arrivals == [(0, 1.5), (1, 2.5), (2, 3.5)]
        assert link.stats.packets_dropped_queue == 0

    def test_set_rate_retimes_only_packets_not_yet_started(self, sim):
        link = make_link(sim, rate_bps=8000.0, delay=0.0, queue_bytes=10_000)
        arrivals = []
        send = self._sender(sim, link, arrivals)
        for seq in range(4):
            send(seq)  # 0 transmits; 1, 2 and 3 queue behind it
        # At 1.5, packet 1 is mid-transmission and keeps the old rate;
        # 2 and 3 have not started and serialise in 0.5 s each.
        sim.schedule_at(1.5, link.set_rate, 16000.0)
        sim.run()
        assert arrivals == [(0, 1.0), (1, 2.0), (2, 2.5), (3, 3.0)]
        assert link.stats.busy_time == 1.0 + 1.0 + 0.5 + 0.5

    @pytest.mark.parametrize("delay", [0.0, 0.5])
    def test_rate_change_at_a_finish_retimes_the_packet_starting_there(self, sim, delay):
        link = make_link(sim, rate_bps=8000.0, delay=delay, queue_bytes=10_000)
        arrivals = []
        send = self._sender(sim, link, arrivals)
        for seq in range(3):
            send(seq)  # 0 finishes at 1; 1 starts there
        # An unowned event runs first at its instant -- before the link's
        # own turn when delay is 0 -- so packet 1, which starts at 1,
        # takes the new rate.
        sim.schedule_at(1.0, lambda: link.set_rate(16000.0))
        sim.run()
        assert arrivals == [(0, 1.0 + delay), (1, 1.5 + delay), (2, 2.0 + delay)]
        assert link.stats.busy_time == 1.0 + 0.5 + 0.5

    @pytest.mark.parametrize("jitter, reported_at", [(0.0, 1.5), (0.25, 1.0)])
    def test_outage_drop_is_reported_at_the_packets_turn(self, sim, jitter, reported_at):
        # The turn is the one event a packet has: its arrival (finish +
        # delay) on a plain link, its finish on a jittered one.
        link = make_link(
            sim, rate_bps=8000.0, delay=0.5, jitter=jitter, rng=random.Random(0)
        )
        dropped = []
        link.on_drop = lambda packet: dropped.append((packet.seq, sim.now))
        self._sender(sim, link, [])(0)  # finishes at 1.0
        sim.schedule_at(0.25, link.set_down)
        sim.run()
        assert dropped == [(0, reported_at)]
        assert link.stats.packets_dropped_outage == 1

    @pytest.mark.parametrize(
        "down, up, delivered",
        [
            (0.25, 0.75, [0, 1]),  # ends before both finishes
            (0.25, 1.5, [1]),  # covers 0's finish (1.0), not 1's (2.0)
            (1.25, 2.0, [0]),  # ends exactly at 1's finish: covers it
            (0.25, 2.5, []),
        ],
    )
    def test_outage_drops_the_packets_whose_finish_it_covers(self, sim, down, up, delivered):
        link = make_link(sim, rate_bps=8000.0, delay=0.5, queue_bytes=10_000)
        arrivals = []
        send = self._sender(sim, link, arrivals)
        send(0)  # finishes at 1.0
        send(1)  # queued; finishes at 2.0
        sim.schedule_at(down, link.set_down)
        sim.schedule_at(up, link.set_down, False)
        sim.run()
        assert [seq for seq, _ in arrivals] == delivered
        assert link.stats.packets_dropped_outage == 2 - len(delivered)
        assert link.stats.packets_in == link.stats.packets_delivered + 2 - len(delivered)


class TestLoss:
    def test_zero_loss_delivers_everything(self, sim):
        link = make_link(sim, queue_bytes=1_000_000)
        delivered = []
        for _ in range(50):
            link.send(Packet(size=100), lambda p: delivered.append(p))
        sim.run()
        assert len(delivered) == 50

    def test_random_loss_drops_roughly_at_rate(self, sim):
        link = make_link(
            sim, queue_bytes=10_000_000, loss_rate=0.3, rng=random.Random(42)
        )
        delivered = []
        n = 2000
        for _ in range(n):
            link.send(Packet(size=100), lambda p: delivered.append(p))
        sim.run()
        drop_fraction = link.stats.packets_dropped_random / n
        assert 0.25 < drop_fraction < 0.35
        assert len(delivered) + link.stats.packets_dropped_random == n

    def test_loss_returns_false_from_send(self, sim):
        link = make_link(sim, loss_rate=0.999999, rng=random.Random(1), queue_bytes=10_000)
        assert link.send(Packet(size=100), lambda p: None) is False


class TestConservation:
    def test_every_packet_delivered_or_dropped(self, sim):
        link = make_link(sim, queue_bytes=3000, loss_rate=0.1, rng=random.Random(7))
        delivered = []
        n = 500
        for _ in range(n):
            link.send(Packet(size=500), lambda p: delivered.append(p))
            sim.run(until=sim.now + 0.001)
        sim.run()
        stats = link.stats
        assert stats.packets_in == n
        assert len(delivered) == stats.packets_delivered
        assert stats.packets_delivered + stats.packets_dropped == n

    def test_utilization_bounded(self, sim):
        link = make_link(sim, rate_bps=1e6, delay=0.0, queue_bytes=1_000_000)
        for _ in range(100):
            link.send(Packet(size=1250), lambda p: None)
        sim.run()
        assert 0.0 < link.stats.utilization(sim.now) <= 1.0

    def test_bytes_delivered_counts_wire_bytes(self, sim):
        link = make_link(sim)
        link.send(Packet(size=700), lambda p: None)
        sim.run()
        assert link.stats.bytes_delivered == 700
