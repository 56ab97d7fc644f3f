"""Tests for the congestion controllers."""

import pytest

from repro.core.spec import CcSpec, build
from repro.tcp.cc import CoupledController, OliaController, RenoController
from repro.tcp.cc.base import MIN_CWND
from tests.conftest import build_connection


def two_subflow_conn(sim, cc_name="reno"):
    conn = build_connection(sim, congestion_control=cc_name)
    return conn, conn.subflows


class TestFactory:
    def test_known_names(self):
        assert isinstance(build(CcSpec.of("reno")), RenoController)
        assert isinstance(build(CcSpec.of("coupled")), CoupledController)
        assert isinstance(build(CcSpec.of("lia")), CoupledController)
        assert isinstance(build(CcSpec.of("olia")), OliaController)

    def test_case_insensitive(self):
        assert isinstance(build(CcSpec.of("RENO")), RenoController)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            build(CcSpec.of("bbr"))


class TestSlowStartAndDecrease:
    def test_slow_start_adds_one_per_ack(self, sim):
        conn, (sf, _) = two_subflow_conn(sim)
        sf.ssthresh = float("inf")
        before = sf.cwnd
        sf.cc.on_ack(sf, 1)
        assert sf.cwnd == pytest.approx(before + 1.0)

    def test_ca_increase_is_reciprocal_for_reno(self, sim):
        conn, (sf, _) = two_subflow_conn(sim)
        sf.cwnd = 20.0
        sf.ssthresh = 10.0
        sf.cc.on_ack(sf, 1)
        assert sf.cwnd == pytest.approx(20.0 + 1.0 / 20.0)

    def test_on_loss_halves_flight(self, sim):
        conn, (sf, _) = two_subflow_conn(sim)
        sf.cwnd = 40.0
        sf._in_flight = 40
        sf.cc.on_loss(sf)
        assert sf.ssthresh == pytest.approx(20.0)
        assert sf.cwnd == pytest.approx(20.0)

    def test_on_loss_floors_at_two(self, sim):
        conn, (sf, _) = two_subflow_conn(sim)
        sf.cwnd = 2.0
        sf._in_flight = 1
        sf.cc.on_loss(sf)
        assert sf.ssthresh == 2.0
        assert sf.cwnd >= MIN_CWND

    def test_on_rto_collapses_to_one(self, sim):
        conn, (sf, _) = two_subflow_conn(sim)
        sf.cwnd = 40.0
        sf._in_flight = 40
        sf.cc.on_rto(sf)
        assert sf.cwnd == MIN_CWND
        assert sf.ssthresh == pytest.approx(20.0)

    def test_cwnd_capped_at_max(self, sim):
        conn, (sf, _) = two_subflow_conn(sim)
        sf.max_cwnd = 15.0
        sf.cwnd = 14.5
        sf.ssthresh = float("inf")
        sf.cc.on_ack(sf, 2)
        assert sf.cwnd == 15.0


class TestCoupled:
    def test_single_path_alpha_reduces_to_reno(self, sim):
        conn = build_connection(sim, path_specs=((10.0, 0.01),), congestion_control="coupled")
        (sf,) = conn.subflows
        sf.cwnd = 20.0
        sf.rtt.add_sample(0.1)
        alpha = conn.cc.alpha()
        # With one path: alpha = w * (w/r^2) / (w/r)^2 = 1.
        assert alpha == pytest.approx(1.0)

    def test_coupled_increase_never_exceeds_reno(self, sim):
        conn, (sf1, sf2) = two_subflow_conn(sim, "coupled")
        sf1.cwnd, sf2.cwnd = 10.0, 50.0
        sf1.rtt.add_sample(0.02)
        sf2.rtt.add_sample(0.2)
        for sf in (sf1, sf2):
            assert conn.cc.ca_increase(sf) <= 1.0 / max(sf.cwnd, 1.0) + 1e-12

    def test_coupled_favors_better_path(self, sim):
        """Total increase shifts toward the lower-RTT subflow."""
        conn, (fast, slow) = two_subflow_conn(sim, "coupled")
        fast.cwnd = slow.cwnd = 20.0
        fast.rtt.add_sample(0.01)
        slow.rtt.add_sample(0.5)
        # alpha is dominated by the fast path's w/rtt^2 term.
        assert conn.cc.alpha() > 0.5

    def test_alpha_handles_zero_windows(self, sim):
        conn, (sf1, sf2) = two_subflow_conn(sim, "coupled")
        sf1.cwnd = sf2.cwnd = 0.0
        assert conn.cc.alpha() == 1.0


class TestOlia:
    def test_single_path_reduces_to_reno(self, sim):
        conn = build_connection(sim, path_specs=((10.0, 0.01),), congestion_control="olia")
        (sf,) = conn.subflows
        sf.cwnd = 25.0
        sf.rtt.add_sample(0.1)
        assert conn.cc.ca_increase(sf) == pytest.approx(1.0 / 25.0, rel=1e-6)

    def test_increase_bounded(self, sim):
        conn, (sf1, sf2) = two_subflow_conn(sim, "olia")
        sf1.cwnd, sf2.cwnd = 1.0, 100.0
        sf1.rtt.add_sample(0.001)
        sf2.rtt.add_sample(1.0)
        for sf in (sf1, sf2):
            inc = conn.cc.ca_increase(sf)
            assert -1.0 <= inc <= 1.0

    def test_collected_path_gets_positive_alpha(self, sim):
        conn, (good, big) = two_subflow_conn(sim, "olia")
        good.cwnd, big.cwnd = 5.0, 50.0
        good.rtt.add_sample(0.01)
        big.rtt.add_sample(0.5)
        good.stats.bytes_since_loss = 10_000_000
        big.stats.bytes_since_loss = 1_000
        assert conn.cc._alpha(good) > 0.0
        assert conn.cc._alpha(big) < 0.0

    def test_alpha_zero_when_best_equals_largest(self, sim):
        conn, (sf1, sf2) = two_subflow_conn(sim, "olia")
        sf1.cwnd, sf2.cwnd = 50.0, 10.0
        sf1.rtt.add_sample(0.01)
        sf2.rtt.add_sample(0.5)
        sf1.stats.bytes_since_loss = 10_000_000
        sf2.stats.bytes_since_loss = 1_000
        # Best path is also the largest-window path: no transfer term.
        assert conn.cc._alpha(sf1) == 0.0


class TestRegistration:
    def test_subflows_register_with_connection_controller(self, sim):
        conn, subflows = two_subflow_conn(sim)
        assert conn.cc.subflows == list(subflows)

    def test_double_registration_is_idempotent(self, sim):
        conn, (sf, _) = two_subflow_conn(sim)
        conn.cc.register(sf)
        assert conn.cc.subflows.count(sf) == 1
