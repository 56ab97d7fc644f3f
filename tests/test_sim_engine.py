"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_schedule_runs_callback_at_time(self, sim):
        fired = []
        sim.schedule(1.5, fired.append, "a")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 1.5

    def test_schedule_at_absolute_time(self, sim):
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        assert sim.now == 2.0

    def test_zero_delay_is_allowed(self, sim):
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_in_the_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, 3)
        sim.schedule(1.0, order.append, 1)
        sim.schedule(2.0, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]

    def test_ties_run_in_schedule_order(self, sim):
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_callback_args_passed_through(self, sim):
        got = []
        sim.schedule(0.1, lambda a, b: got.append((a, b)), "x", 42)
        sim.run()
        assert got == [("x", 42)]

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []

        def outer():
            sim.schedule(1.0, fired.append, "inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["inner"]
        assert sim.now == 2.0


class _Owner:
    """An event owner the way links and subflows are: ranked when built."""

    def __init__(self, sim, log, name):
        self._rank = sim.next_rank()
        self.log = log
        self.name = name

    def fire(self, tag=""):
        self.log.append(self.name + tag)


class TestCanonicalKey:
    """An instant's events run in owner-construction order, whatever order
    they were scheduled in."""

    def test_same_instant_events_run_in_owner_order(self, sim):
        log = []
        first, second = _Owner(sim, log, "a"), _Owner(sim, log, "b")
        sim.schedule(1.0, second.fire)
        sim.schedule_at(1.0, first.fire)
        sim.schedule(1.0, log.append, "unowned")
        sim.run()
        assert log == ["unowned", "a", "b"]

    def test_one_owners_ties_keep_schedule_order(self, sim):
        log = []
        owner = _Owner(sim, log, "a")
        for tag in "123":
            sim.schedule(1.0, owner.fire, tag)
        sim.run()
        assert log == ["a1", "a2", "a3"]

    def test_ranks_are_per_world_construction_indices(self):
        assert [Simulator().next_rank() for _ in range(2)] == [1, 1]
        sim = Simulator()
        assert [sim.next_rank() for _ in range(3)] == [1, 2, 3]

    def test_random_mode_shuffles_only_equal_time_and_rank(self):
        orders = set()
        for seed in range(12):
            sim = Simulator(tie_break="random", tie_break_seed=seed)
            log = []
            first, second = _Owner(sim, log, "a"), _Owner(sim, log, "b")
            for tag in "12":
                sim.schedule(1.0, second.fire, tag)
                sim.schedule(1.0, first.fire, tag)
            sim.run()
            assert sorted(log[:2]) == ["a1", "a2"] and sorted(log[2:]) == ["b1", "b2"]
            orders.add(tuple(log))
        assert len(orders) > 1


class TestRunControl:
    def test_run_until_stops_clock_at_until(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert sim.pending_events == 1

    def test_run_until_includes_events_at_boundary(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, 1)
        sim.run(until=2.0)
        assert fired == [1]

    def test_run_until_advances_clock_when_queue_drains(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_run_returns_executed_count(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run(until=3.0) == 3

    def test_max_events_limits_execution(self, sim):
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending_events == 6

    def test_budget_stop_does_not_fast_forward_past_pending(self, sim):
        # Regression: with events still pending at t <= until, a
        # max_events stop must leave the clock at the last dispatched
        # event, or the backlog would sit in the past.
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run(until=10.0, max_events=2) == 2
        assert sim.now == 2.0
        # Continuing is legal: nothing is scheduled in the past.
        sim.schedule_at(2.5, lambda: None)
        assert sim.run(until=10.0) == 4
        assert sim.now == 10.0

    def test_budget_stop_still_advances_when_rest_is_later(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        assert sim.run(until=10.0, max_events=1) == 1
        assert sim.now == 10.0

    def test_budget_stop_resume_is_monotonic_under_sanitizer(self, sim):
        from repro.analysis import sanitize

        for i in range(6):
            sim.schedule(float(i + 1), lambda: None)
        sanitize.enable()
        try:
            sim.run(until=10.0, max_events=3)
            sim.run(until=10.0)
        finally:
            sanitize.disable()
        assert sim.now == 10.0

    def test_step_executes_one_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step() is True
        assert fired == [1]

    def test_step_on_empty_queue_returns_false(self, sim):
        assert sim.step() is False

    def test_run_is_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_processed_accumulates(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2


class TestTimers:
    def test_cancelled_timer_does_not_fire(self, sim):
        fired = []
        timer = sim.schedule(1.0, fired.append, 1)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        timer = sim.schedule(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        sim.run()

    def test_cancel_after_firing_is_noop(self, sim):
        timer = sim.schedule(1.0, lambda: None)
        sim.run()
        timer.cancel()

    def test_active_reflects_cancellation(self, sim):
        timer = sim.schedule(1.0, lambda: None)
        assert timer.active
        timer.cancel()
        assert not timer.active

    def test_peek_time_skips_cancelled(self, sim):
        t1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        t1.cancel()
        assert sim.peek_time() == 2.0

    def test_peek_time_empty_queue(self, sim):
        assert sim.peek_time() is None

    def test_pending_events_excludes_cancelled(self, sim):
        t1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        t1.cancel()
        assert sim.pending_events == 1

    def test_cancelled_timer_drops_references(self, sim):
        big = ["payload"] * 1000
        timer = sim.schedule(1.0, lambda x: None, big)
        timer.cancel()
        assert timer.args == ()

    def test_active_false_after_firing(self, sim):
        timer = sim.schedule(1.0, lambda: None)
        sim.run()
        assert not timer.active

    def test_cancel_after_firing_does_not_count_as_cancellation(self, sim):
        """A fired timer is spent; a late cancel() must not touch the
        cancellation counters (it would make the heap bookkeeping drift)."""
        timer = sim.schedule(1.0, lambda: None)
        sim.run()
        timer.cancel()
        timer.cancel()
        assert sim.timers_cancelled == 0
        assert sim.cancelled_pending == 0

    def test_active_false_while_callback_runs(self, sim):
        seen = []
        timer = sim.schedule(1.0, lambda: seen.append(timer.active))
        sim.run()
        assert seen == [False]


class TestArm:
    """``schedule_at`` arms a new timer; an owner with one event pending
    at a time arms its one timer again after each firing."""

    def test_unarmed_timer_fires_once_armed(self, sim):
        fired = []
        timer = sim.timer(fired.append, "a")
        assert not timer.active
        sim.run()
        assert fired == []
        sim.arm(timer, 1.0)
        assert timer.active
        sim.run()
        assert (fired, sim.now) == (["a"], 1.0)

    def test_fired_timer_is_armed_again_from_its_own_callback(self, sim):
        log = []

        def tick():
            log.append(sim.now)
            if len(log) < 3:
                sim.arm(timer, sim.now + 0.5)

        timer = sim.timer(tick)
        sim.arm(timer, 1.0)
        assert sim.run() == 3
        assert log == [1.0, 1.5, 2.0]
        assert sim.timers_scheduled == 3

    def test_armed_timer_keeps_its_owners_rank(self, sim):
        log = []
        first, second = _Owner(sim, log, "a"), _Owner(sim, log, "b")
        timer = sim.timer(second.fire)
        sim.arm(timer, 1.0)
        sim.schedule(1.0, first.fire)
        sim.run()
        assert log == ["a", "b"]

    def test_pending_or_cancelled_timer_is_refused(self, sim):
        pending = sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="can be armed"):
            sim.arm(pending, 2.0)
        pending.cancel()
        with pytest.raises(SimulationError, match="can be armed"):
            sim.arm(pending, 2.0)

    def test_arming_in_the_past_is_refused(self, sim):
        sim.run(until=1.0)
        with pytest.raises(SimulationError, match="past"):
            sim.arm(sim.timer(lambda: None), 0.5)


class TestCancellationAccounting:
    def test_stale_pops_counted(self, sim):
        timers = [sim.schedule(1.0 + i, lambda: None) for i in range(5)]
        for timer in timers[:3]:
            timer.cancel()
        executed = sim.run()
        assert executed == 2
        assert sim.stale_pops == 3
        assert sim.cancelled_pending == 0

    def test_peek_time_accounts_stale_entries(self, sim):
        t1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        t1.cancel()
        assert sim.cancelled_pending == 1
        assert sim.peek_time() == 2.0
        # peek dropped the dead entry from the heap and said so.
        assert sim.stale_pops == 1
        assert sim.cancelled_pending == 0

    def test_timers_scheduled_and_cancelled_counters(self, sim):
        timers = [sim.schedule(1.0 + i, lambda: None) for i in range(4)]
        timers[0].cancel()
        timers[0].cancel()  # idempotent: counted once
        assert sim.timers_scheduled == 4
        assert sim.timers_cancelled == 1


class TestHeapCompaction:
    def test_compaction_triggers_when_mostly_cancelled(self, sim):
        timers = [sim.schedule(1.0 + i, lambda: None) for i in range(600)]
        for timer in timers[:400]:
            timer.cancel()
        assert sim.heap_compactions >= 1
        # Cancels after the compaction re-accumulate, but stay under the
        # trigger threshold; live entries are never dropped.
        assert sim.cancelled_pending < 256
        assert sim.pending_events == 200

    def test_compaction_preserves_execution_order(self, sim):
        fired = []
        timers = []
        # Interleave survivors and victims so compaction has to rebuild a
        # heap whose live entries are scattered.
        for i in range(600):
            timers.append(sim.schedule(1.0 + i * 0.001, fired.append, i))
        victims = [t for i, t in enumerate(timers) if i % 3 != 0]
        for timer in victims:
            timer.cancel()
        assert sim.heap_compactions >= 1
        sim.run()
        survivors = [i for i in range(600) if i % 3 == 0]
        assert fired == survivors

    def test_no_compaction_below_threshold(self, sim):
        timers = [sim.schedule(1.0 + i, lambda: None) for i in range(20)]
        for timer in timers[:10]:
            timer.cancel()
        assert sim.heap_compactions == 0
        assert sim.cancelled_pending == 10

    def test_cancel_inside_callback_keeps_counters_consistent(self, sim):
        """Cancellations from inside run() (the retransmit-timer pattern)
        must leave every counter self-consistent when the run ends."""
        timers = [sim.schedule(10.0 + i, lambda: None) for i in range(580)]

        def cancel_many():
            for timer in timers[:400]:
                timer.cancel()

        sim.schedule(1.0, cancel_many)
        executed = sim.run()
        assert executed == 1 + 180
        assert sim.timers_cancelled == 400
        assert sim.cancelled_pending == 0
        assert sim.stale_pops + 400 - sim.timers_cancelled <= 400
        assert sim.pending_events == 0
