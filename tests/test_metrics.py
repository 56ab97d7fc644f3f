"""Tests for the statistics helpers and runtime collectors."""

import pytest

from repro.metrics.collectors import PeriodicSampler
from repro.metrics.stats import (
    ccdf,
    cdf,
    mean,
    percentile,
)
from repro.sim.trace import TraceRecorder


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_percentile_bounds(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 4.0

    def test_percentile_interpolates(self):
        assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_cdf_shape(self):
        points = cdf([3.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)), (3.0, 1.0)]

    def test_cdf_merges_duplicates(self):
        points = cdf([1.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(2 / 3)), (2.0, 1.0)]

    def test_cdf_empty(self):
        assert cdf([]) == []

    def test_ccdf_complements_cdf(self):
        data = [1.0, 2.0, 3.0, 4.0]
        for (x1, p), (x2, q) in zip(cdf(data), ccdf(data)):
            assert x1 == x2
            assert p + q == pytest.approx(1.0)


class TestPeriodicSampler:
    def test_samples_at_period(self, sim):
        trace = TraceRecorder()
        sampler = PeriodicSampler(sim, trace, period=0.5)
        value = {"x": 0.0}
        sampler.add("x", lambda: value["x"])
        sampler.start(until=2.0)
        sim.schedule(0.75, lambda: value.update(x=5.0))
        sim.run(until=3.0)
        samples = trace.series("x")
        assert [t for t, _ in samples] == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert samples[0][1] == 0.0
        assert samples[2][1] == 5.0

    def test_period_validation(self, sim):
        with pytest.raises(ValueError):
            PeriodicSampler(sim, TraceRecorder(), period=0.0)

    def test_double_start_raises(self, sim):
        sampler = PeriodicSampler(sim, TraceRecorder(), period=1.0)
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()
