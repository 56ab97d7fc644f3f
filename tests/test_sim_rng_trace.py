"""Tests for the RNG registry and trace recorder."""

import pytest

from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(7).stream("loss")
        b = RngRegistry(7).stream("loss")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        rngs = RngRegistry(7)
        a = [rngs.stream("a").random() for _ in range(5)]
        b = [rngs.stream("b").random() for _ in range(5)]
        assert a != b

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random()
        b = RngRegistry(2).stream("x").random()
        assert a != b

    def test_stream_is_cached(self):
        rngs = RngRegistry(0)
        assert rngs.stream("x") is rngs.stream("x")

    def test_adding_stream_does_not_perturb_existing(self):
        rngs1 = RngRegistry(9)
        s = rngs1.stream("loss")
        first = s.random()
        rngs2 = RngRegistry(9)
        rngs2.stream("new-consumer")  # extra stream created first
        assert rngs2.stream("loss").random() == first

    def test_fork_produces_independent_registry(self):
        parent = RngRegistry(5)
        child = parent.fork("child")
        assert child.stream("x").random() != parent.stream("x").random()

    def test_fork_is_deterministic(self):
        a = RngRegistry(5).fork("c").stream("x").random()
        b = RngRegistry(5).fork("c").stream("x").random()
        assert a == b


class TestTraceRecorder:
    def test_record_and_read_back(self):
        trace = TraceRecorder()
        trace.record("cwnd", 1.0, 10.0)
        trace.record("cwnd", 2.0, 20.0)
        assert trace.series("cwnd") == [(1.0, 10.0), (2.0, 20.0)]

    def test_disabled_recorder_drops_samples(self):
        trace = TraceRecorder(enabled=False)
        trace.record("cwnd", 1.0, 10.0)
        assert trace.series("cwnd") == []

    def test_unknown_series_is_empty(self):
        assert TraceRecorder().series("nope") == []

    def test_names_sorted(self):
        trace = TraceRecorder()
        trace.record("b", 0.0, 1.0)
        trace.record("a", 0.0, 1.0)
        assert trace.names() == ["a", "b"]

    def test_last_returns_most_recent(self):
        trace = TraceRecorder()
        trace.record("x", 1.0, 5.0)
        trace.record("x", 2.0, 6.0)
        assert trace.last("x") == (2.0, 6.0)

    def test_last_raises_for_missing_series(self):
        with pytest.raises(KeyError):
            TraceRecorder().last("x")

    def test_values_and_times(self):
        trace = TraceRecorder()
        trace.record("x", 1.0, 5.0)
        trace.record("x", 2.0, 6.0)
        assert trace.values("x") == [5.0, 6.0]
        assert trace.times("x") == [1.0, 2.0]

    def test_window_filters_by_time(self):
        trace = TraceRecorder()
        for t in range(5):
            trace.record("x", float(t), float(t))
        assert trace.window("x", 1.0, 3.0) == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_extend_bypasses_enabled(self):
        trace = TraceRecorder(enabled=False)
        trace.extend("x", [(0.0, 1.0)])
        assert trace.series("x") == [(0.0, 1.0)]

    def test_contains(self):
        trace = TraceRecorder()
        trace.record("x", 0.0, 0.0)
        assert "x" in trace
        assert "y" not in trace

    def test_clear(self):
        trace = TraceRecorder()
        trace.record("x", 0.0, 0.0)
        trace.clear()
        assert trace.names() == []

    def test_clear_then_record_again(self):
        trace = TraceRecorder()
        trace.record("x", 0.0, 1.0)
        trace.clear()
        assert "x" not in trace
        trace.record("x", 5.0, 9.0)
        assert trace.series("x") == [(5.0, 9.0)]


class TestTraceRecorderSampleCap:
    def test_cap_evicts_oldest(self):
        trace = TraceRecorder(max_samples_per_series=3)
        for t in range(5):
            trace.record("x", float(t), float(t * 10))
        assert trace.series("x") == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]

    def test_cap_applies_per_series(self):
        trace = TraceRecorder(max_samples_per_series=2)
        for t in range(4):
            trace.record("a", float(t), 0.0)
        trace.record("b", 0.0, 1.0)
        assert len(trace.series("a")) == 2
        assert trace.series("b") == [(0.0, 1.0)]

    def test_last_and_values_on_capped_series(self):
        trace = TraceRecorder(max_samples_per_series=2)
        for t in range(4):
            trace.record("x", float(t), float(t))
        assert trace.last("x") == (3.0, 3.0)
        assert trace.values("x") == [2.0, 3.0]
        assert trace.times("x") == [2.0, 3.0]

    def test_extend_respects_cap(self):
        trace = TraceRecorder(max_samples_per_series=2)
        trace.extend("x", [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        assert trace.series("x") == [(1.0, 1.0), (2.0, 2.0)]

    def test_uncapped_series_unbounded(self):
        trace = TraceRecorder()
        for t in range(100):
            trace.record("x", float(t), 0.0)
        assert len(trace.series("x")) == 100

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_samples_per_series=0)
        with pytest.raises(ValueError):
            TraceRecorder(max_samples_per_series=-3)
