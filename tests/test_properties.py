"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.core.base import Scheduler
from repro.core.minrtt import MinRttScheduler
from repro.metrics.stats import ccdf, cdf, mean, percentile, stdev
from repro.mptcp.receiver import MptcpReceiver
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.tcp.rtt import RttEstimator
from tests.conftest import build_connection

finite_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


class TestStatsProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_cdf_is_monotone_and_ends_at_one(self, samples):
        points = cdf(samples)
        probs = [p for _, p in points]
        xs = [x for x, _ in points]
        assert xs == sorted(xs)
        assert probs == sorted(probs)
        assert abs(probs[-1] - 1.0) < 1e-9

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_ccdf_complements(self, samples):
        for (x1, p), (x2, q) in zip(cdf(samples), ccdf(samples)):
            assert x1 == x2
            assert abs(p + q - 1.0) < 1e-9

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_percentiles_bounded_by_extremes(self, samples):
        for q in (0, 25, 50, 75, 100):
            value = percentile(samples, q)
            assert min(samples) - 1e-9 <= value <= max(samples) + 1e-9

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_mean_between_extremes(self, samples):
        assert min(samples) - 1e-9 <= mean(samples) <= max(samples) + 1e-9

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_stdev_nonnegative(self, samples):
        assert stdev(samples) >= 0.0


class TestRttEstimatorProperties:
    @given(st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=100))
    def test_srtt_stays_within_sample_range(self, samples):
        est = RttEstimator()
        for sample in samples:
            est.add_sample(sample)
        assert min(samples) - 1e-9 <= est.srtt <= max(samples) + 1e-9

    @given(st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=100))
    def test_rto_at_least_srtt_plus_floor(self, samples):
        est = RttEstimator()
        for sample in samples:
            est.add_sample(sample)
        assert est.rto >= min(est.srtt + est.min_rto_var, est.max_rto) - 1e-9

    @given(st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=2, max_size=100))
    def test_sigma_nonnegative_and_bounded(self, samples):
        est = RttEstimator()
        for sample in samples:
            est.add_sample(sample)
        assert 0.0 <= est.sigma <= (max(samples) - min(samples)) + 1e-9


    @given(
        st.lists(st.floats(min_value=0.001, max_value=100.0), max_size=60),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.5, max_value=60.0),
    )
    def test_stored_rto_and_memoised_sigma_equal_their_formulas(
        self, samples, min_rto_var, max_rto
    ):
        """``rto`` is computed when a sample lands and ``sigma`` once per
        sample; both must read as the on-demand properties they replace."""
        est = RttEstimator(min_rto_var=min_rto_var, max_rto=max_rto)
        assert est.rto == 1.0 and est.sigma == 0.0
        for sample in samples:
            est.add_sample(sample)
            assert est.rto == min(max_rto, est.srtt + max(min_rto_var, 4.0 * est.rttvar))
            window = est._window
            n = len(window)
            expected = 0.0
            if n >= 2:
                mean = sum(window) / n
                expected = math.sqrt(sum((x - mean) ** 2 for x in window) / (n - 1))
            first = est.sigma
            assert first == expected
            assert est.sigma is first  # no recomputation without a new sample


# ----------------------------------------------------------------------
# The single-pass subflow ranking against its list-based specification
# ----------------------------------------------------------------------


def spec_can_send(sf):
    return sf.established and not sf._retx_queue and sf.has_window_space()


def spec_fastest(subflows):
    usable = [sf for sf in subflows if math.isfinite(sf.srtt_or_default())]
    if not usable:
        return None
    return min(usable, key=lambda sf: (sf.srtt_or_default(), sf.sf_id))


def spec_fastest_and_sendable(conn):
    """ECF's and BLEST's two-stage pick as they spelled it out before."""
    established = [sf for sf in conn.subflows if sf.established]
    fastest = spec_fastest(established)
    if fastest is None:
        return None, None
    if spec_can_send(fastest):
        return fastest, fastest
    candidates = [sf for sf in established if sf is not fastest and spec_can_send(sf)]
    return fastest, spec_fastest(candidates)


#: None (no sample yet), finite values with equal pairs, and the two
#: non-finite estimates a path in an outage can produce.
rtt_values = st.sampled_from([None, 0.01, 0.01, 0.05, 0.05, 0.2, 3.0, math.inf, math.nan])

subflow_states = st.lists(
    st.tuples(
        rtt_values,  # srtt
        rtt_values.filter(lambda v: v is not None),  # pre-handshake default
        st.booleans(),  # established
        st.booleans(),  # window full
        st.booleans(),  # retransmissions queued
    ),
    min_size=1,
    max_size=8,
)


def ranked_world(states):
    sim = Simulator()
    conn = build_connection(sim, path_specs=[(10.0, 0.01)] * len(states))
    sim.now = 1.0
    for sf, (srtt, default, established, full, retx) in zip(conn.subflows, states):
        sf.rtt.srtt = srtt
        sf._default_rtt = default
        sf.established_at = 0.5 if established else 2.0
        if full:
            sf._in_flight = int(sf.cwnd)
        if retx:
            sf._retx_queue.append(object())
    return conn


class TestRankingProperties:
    @given(subflow_states)
    def test_can_send_is_its_three_conditions(self, states):
        for sf in ranked_world(states).subflows:
            assert sf.can_send() == spec_can_send(sf)

    @given(subflow_states, st.data())
    def test_fastest_matches_the_list_definition(self, states, data):
        conn = ranked_world(states)
        subset = [sf for sf in conn.subflows if data.draw(st.booleans())]
        assert Scheduler.fastest(subset) is spec_fastest(subset)

    @given(subflow_states)
    def test_fastest_and_sendable_matches_the_two_stage_pick(self, states):
        conn = ranked_world(states)
        fastest, sendable = Scheduler.fastest_and_sendable(conn)
        spec_first, spec_second = spec_fastest_and_sendable(conn)
        assert fastest is spec_first
        assert sendable is spec_second
        # minRTT's answer: the fastest of the subflows that can send.
        sendable_list = [sf for sf in conn.subflows if spec_can_send(sf)]
        assert MinRttScheduler().select(conn) is spec_fastest(sendable_list)

    @given(subflow_states)
    def test_minrtt_picks_the_fastest_available(self, states):
        conn = ranked_world(states)
        available = [sf for sf in conn.subflows if spec_can_send(sf)]
        assert conn.scheduler.select(conn) is spec_fastest(available)


@st.composite
def dsn_stream(draw):
    """A randomly ordered segmentation of a contiguous byte range, with
    duplicates sprinkled in."""
    n_segments = draw(st.integers(min_value=1, max_value=40))
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=1448),
            min_size=n_segments, max_size=n_segments,
        )
    )
    segments = []
    dsn = 0
    for size in sizes:
        segments.append((dsn, size))
        dsn += size
    order = draw(st.permutations(segments))
    duplicates = draw(st.lists(st.sampled_from(segments), max_size=10))
    return list(order) + duplicates, dsn


class TestReceiverProperties:
    @given(dsn_stream())
    @settings(max_examples=200)
    def test_any_arrival_order_reassembles_exactly(self, case):
        arrivals, total = case
        sim = Simulator()
        rx = MptcpReceiver(sim, recv_buffer_bytes=10_000_000)
        delivered = []
        rx.on_deliver = delivered.append
        for dsn, size in arrivals:
            rx.on_data(Packet(size=size + 60, payload=size, dsn=dsn))
        assert rx.expected_dsn == total
        assert sum(delivered) == total
        assert rx.buffered_bytes == 0
        assert all(d >= 0.0 for d in rx.ooo_delays)

    @given(dsn_stream())
    @settings(max_examples=100)
    def test_delivery_count_matches_unique_segments(self, case):
        arrivals, total = case
        sim = Simulator()
        rx = MptcpReceiver(sim)
        rx.on_data  # appease linters
        unique = len({dsn for dsn, _ in arrivals})
        for dsn, size in arrivals:
            rx.on_data(Packet(size=size + 60, payload=size, dsn=dsn))
        assert len(rx.ooo_delays) == unique
        assert rx.duplicate_packets == len(arrivals) - unique


class TestLinkProperties:
    @given(
        st.lists(st.integers(min_value=40, max_value=1508), min_size=1, max_size=60),
        st.integers(min_value=1500, max_value=50_000),
        st.floats(min_value=0.0, max_value=0.4),
    )
    @settings(max_examples=100)
    def test_conservation_under_arbitrary_traffic(self, sizes, queue_bytes, loss):
        sim = Simulator()
        link = Link(
            sim, 1e6, 0.005, queue_bytes,
            loss_rate=loss, rng=random.Random(0),
        )
        delivered = []
        for size in sizes:
            link.send(Packet(size=size), lambda p: delivered.append(p.size))
        sim.run()
        stats = link.stats
        assert stats.packets_in == len(sizes)
        assert stats.packets_delivered + stats.packets_dropped == len(sizes)
        assert len(delivered) == stats.packets_delivered

    @given(st.lists(st.integers(min_value=40, max_value=1508), min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_fifo_order_preserved(self, sizes):
        sim = Simulator()
        link = Link(sim, 1e6, 0.01, 10_000_000)
        order = []
        for index, size in enumerate(sizes):
            link.send(Packet(size=size, seq=index), lambda p: order.append(p.seq))
        sim.run()
        assert order == sorted(order)


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=100))
    def test_events_execute_in_nondecreasing_time(self, delays):
        sim = Simulator()
        times = []
        for delay in delays:
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
        assert len(times) == len(delays)
