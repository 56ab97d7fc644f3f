"""Tests for the RFC 6298 RTT estimator with ECF's sigma extension."""

import pytest

from repro.tcp.rtt import RttEstimator


class TestBasics:
    def test_first_sample_initializes(self):
        est = RttEstimator()
        est.add_sample(0.1)
        assert est.srtt == pytest.approx(0.1)
        assert est.rttvar == pytest.approx(0.05)

    def test_rejects_nonpositive_sample(self):
        with pytest.raises(ValueError):
            RttEstimator().add_sample(0.0)

    def test_ewma_smoothing(self):
        est = RttEstimator()
        est.add_sample(0.1)
        est.add_sample(0.2)
        # srtt = 7/8*0.1 + 1/8*0.2
        assert est.srtt == pytest.approx(0.1125)

    def test_rttvar_update(self):
        est = RttEstimator()
        est.add_sample(0.1)
        est.add_sample(0.2)
        # rttvar = 3/4*0.05 + 1/4*|0.1-0.2|
        assert est.rttvar == pytest.approx(0.0625)

    def test_initial_rtt_constructor(self):
        est = RttEstimator(initial_rtt=0.2)
        assert est.srtt == pytest.approx(0.2)

    def test_samples_counted(self):
        est = RttEstimator()
        for _ in range(5):
            est.add_sample(0.1)
        assert est.samples == 5

    def test_mean_rtt(self):
        est = RttEstimator()
        est.add_sample(0.1)
        est.add_sample(0.3)
        assert est.mean_rtt == pytest.approx(0.2)

    def test_mean_rtt_without_samples_is_zero(self):
        assert RttEstimator().mean_rtt == 0.0


class TestRto:
    def test_initial_rto_is_one_second(self):
        assert RttEstimator().rto == 1.0

    def test_rto_has_linux_variance_floor(self):
        est = RttEstimator()
        for _ in range(20):
            est.add_sample(0.1)  # rttvar decays toward 0
        # RTO >= srtt + 200 ms even with tiny variance.
        assert est.rto == pytest.approx(0.1 + 0.2, abs=0.01)

    def test_rto_tracks_variance(self):
        est = RttEstimator()
        for sample in (0.1, 0.5, 0.1, 0.5, 0.1, 0.5):
            est.add_sample(sample)
        assert est.rto > 0.3 + 0.2 * 0  # well above the floor
        assert est.rto > est.srtt + 0.2

    def test_rto_capped_at_max(self):
        est = RttEstimator(max_rto=2.0)
        est.add_sample(10.0)
        assert est.rto == 2.0


class TestSigma:
    def test_sigma_zero_before_two_samples(self):
        est = RttEstimator()
        assert est.sigma == 0.0
        est.add_sample(0.1)
        assert est.sigma == 0.0

    def test_sigma_of_constant_samples_is_zero(self):
        est = RttEstimator()
        for _ in range(10):
            est.add_sample(0.1)
        assert est.sigma == pytest.approx(0.0, abs=1e-12)

    def test_sigma_of_varying_samples_positive(self):
        est = RttEstimator()
        for sample in (0.1, 0.2, 0.1, 0.2):
            est.add_sample(sample)
        assert est.sigma > 0.0

    def test_sigma_windowed_forgets_old_variation(self):
        est = RttEstimator(sigma_window=4)
        for sample in (0.1, 0.9, 0.1, 0.9):
            est.add_sample(sample)
        high_sigma = est.sigma
        for _ in range(8):
            est.add_sample(0.5)
        assert est.sigma < high_sigma / 10

    def test_sigma_window_validation(self):
        with pytest.raises(ValueError):
            RttEstimator(sigma_window=1)
