"""Behavioural tests of ECF inside a live connection.

The unit tests in test_schedulers.py pin Algorithm 1's branches; these
exercise the state machine as the connection actually drives it: waiting
ends when the fast path frees, hysteresis persists across consecutive
decisions, and more than two subflows are handled.
"""

import dataclasses
import hashlib

import pytest

from repro.analysis import events
from repro.analysis.fixtures import NoWaitEcfScheduler
from repro.core.ecf import EcfScheduler
from repro.experiments import runner
from repro.experiments.runner import StreamingSpec
from repro.experiments.spec import canonical_json, run_spec
from repro.sim import probe
from tests.conftest import build_connection, drain


def warmed_conn(sim, path_specs=((10.0, 0.005), (1.0, 0.05)), **kw):
    conn = build_connection(sim, scheduler_name="ecf", path_specs=path_specs, **kw)
    for sf, rtt in zip(conn.subflows, (0.01, 0.1, 0.2, 0.4)):
        sf.rtt.add_sample(rtt)
    return conn


class TestWaitingLifecycle:
    def test_wait_releases_when_fast_path_frees(self, sim):
        conn = warmed_conn(sim)
        fast, slow = conn.subflows
        fast.cwnd = slow.cwnd = 10.0
        fast._in_flight = 10
        conn.unassigned_bytes = conn.mss
        assert conn.scheduler.select(conn) is None
        assert conn.scheduler.waiting
        # An ACK frees the fast window; the next decision uses it.
        fast._in_flight = 9
        assert conn.scheduler.select(conn) is fast

    def test_waiting_persists_across_decisions(self, sim):
        conn = warmed_conn(sim)
        fast, slow = conn.subflows
        fast.cwnd = slow.cwnd = 10.0
        fast._in_flight = 10
        conn.unassigned_bytes = conn.mss
        with events.recording() as log:
            for _ in range(3):
                assert conn.scheduler.select(conn) is None
        decisions = log.of_kind(events.EcfDecision)
        assert [d.decision for d in decisions] == ["wait"] * 3
        assert [d.waiting_before for d in decisions] == [False, True, True]

    def test_full_transfer_with_waiting_episodes_completes(self, sim):
        conn = warmed_conn(sim)
        for _ in range(5):
            conn.write(400_000)
        drain(sim)
        assert conn.delivered_bytes == 2_000_000

    def test_scheduler_wait_counter_reflects_episodes(self, sim):
        conn = warmed_conn(sim)
        conn.write(2_000_000)
        drain(sim)
        assert conn.scheduler.decisions > 0
        # Waits plus sends account for every decision.
        scheduler = conn.scheduler
        assert scheduler.waits <= scheduler.decisions


class TestManySubflows:
    def test_fastest_of_four_is_preferred(self, sim):
        conn = warmed_conn(
            sim,
            path_specs=((10.0, 0.005), (8.0, 0.02), (5.0, 0.05), (1.0, 0.1)),
        )
        conn.unassigned_bytes = 100 * conn.mss
        assert conn.scheduler.select(conn) is conn.subflows[0]

    def test_second_fastest_checked_when_fastest_full(self, sim):
        conn = warmed_conn(
            sim,
            path_specs=((10.0, 0.005), (8.0, 0.02), (1.0, 0.1)),
        )
        first, second, third = conn.subflows
        first._in_flight = int(first.cwnd)
        conn.unassigned_bytes = 1000 * conn.mss  # plenty: no waiting
        assert conn.scheduler.select(conn) is second

    def test_four_subflow_transfer_completes(self, sim):
        conn = warmed_conn(
            sim,
            path_specs=((10.0, 0.005), (8.0, 0.02), (5.0, 0.05), (1.0, 0.1)),
        )
        conn.write(3_000_000)
        drain(sim)
        assert conn.delivered_bytes == 3_000_000
        # The scheduler spread bulk load beyond the fastest path.
        sent = conn.payload_sent_by_subflow()
        assert sum(1 for v in sent.values() if v > 0) >= 2


def ineq2_boundary_conn(sim, use_second_inequality=True):
    """A connection parked where inequality 1 holds but inequality 2 fails.

    fast: srtt 0.02s, sigma 0 (single sample); slow: srtt 0.04125s,
    sigma ~= 0.00707s (samples 0.04, 0.05), so delta ~= 0.00707.  With
    k = 1 segment and both cwnds at 10:

    * inequality 1: n = 2, 2 * 0.02 = 0.04 < 0.04125 + 0.00707   (holds)
    * inequality 2: 1 * 0.04125 < 2 * 0.02 + 0.00707             (fails)

    Stock ECF therefore sends on the slow subflow; with the second
    inequality ablated the first alone decides, and the scheduler waits.
    """
    conn = build_connection(sim, scheduler_name="ecf")
    scheduler = EcfScheduler(use_second_inequality=use_second_inequality)
    conn.scheduler = scheduler
    scheduler.attach(conn)
    fast, slow = conn.subflows
    fast.rtt.add_sample(0.02)
    slow.rtt.add_sample(0.04)
    slow.rtt.add_sample(0.05)
    fast.cwnd = slow.cwnd = 10.0
    fast._in_flight = 10  # fastest full: the wait-or-send branch runs
    conn.unassigned_bytes = conn.mss  # k = 1 segment
    return conn


class TestSecondInequalityAblation:
    def test_stock_sends_on_slow_when_second_inequality_fails(self, sim):
        conn = ineq2_boundary_conn(sim, use_second_inequality=True)
        _, slow = conn.subflows
        with events.recording() as log:
            assert conn.scheduler.select(conn) is slow
        assert [d.decision for d in log.of_kind(events.EcfDecision)] == ["slow"]

    def test_ablation_waits_on_first_inequality_alone(self, sim):
        conn = ineq2_boundary_conn(sim, use_second_inequality=False)
        with events.recording() as log:
            assert conn.scheduler.select(conn) is None
        assert conn.scheduler.waiting
        assert [d.decision for d in log.of_kind(events.EcfDecision)] == ["wait"]

    def test_ablation_still_sends_on_slow_when_first_inequality_fails(self, sim):
        conn = ineq2_boundary_conn(sim, use_second_inequality=False)
        _, slow = conn.subflows
        conn.unassigned_bytes = 2000 * conn.mss  # k huge: ineq 1 fails
        assert conn.scheduler.select(conn) is slow
        assert not conn.scheduler.waiting

    def test_ineq2_forced_send_leaves_hysteresis_latched(self, sim):
        # A send forced by inequality 2 must not clear the waiting state:
        # only inequality 1 failing does (the beta hysteresis contract).
        conn = ineq2_boundary_conn(sim, use_second_inequality=True)
        _, slow = conn.subflows
        conn.scheduler.waiting = True
        assert conn.scheduler.select(conn) is slow
        assert conn.scheduler.waiting

    def test_ablated_transfer_completes(self, sim):
        conn = ineq2_boundary_conn(sim, use_second_inequality=False)
        conn.unassigned_bytes = 0
        conn.subflows[0]._in_flight = 0
        conn.write(1_000_000)
        drain(sim)
        assert conn.delivered_bytes == 1_000_000


class TestUnitsAndEdges:
    def test_k_is_measured_in_bytes_and_scaled_by_mss(self, sim):
        """The inequality sees k in segments: one MSS-sized write is one
        packet's worth of k."""
        conn = warmed_conn(sim)
        fast, slow = conn.subflows
        fast.cwnd = slow.cwnd = 10.0
        fast._in_flight = 10
        conn.unassigned_bytes = conn.mss  # k = 1 segment
        assert conn.scheduler.select(conn) is None  # waits (paper example)
        conn.scheduler.waiting = False
        conn.unassigned_bytes = 2000 * conn.mss  # k huge
        assert conn.scheduler.select(conn) is slow

    def test_no_established_subflows_waits(self, sim):
        conn = build_connection(sim, scheduler_name="ecf", handshake_delays=True)
        # Before any handshake completes, nothing is selectable.
        assert conn.scheduler.select(conn) is None

    def test_single_subflow_degenerates_to_direct_send(self, sim):
        conn = build_connection(
            sim, scheduler_name="ecf", path_specs=((10.0, 0.01),)
        )
        conn.write(500_000)
        drain(sim)
        assert conn.delivered_bytes == 500_000

    def test_scheduler_stats_expose_decision_mix(self, sim):
        scheduler = EcfScheduler()
        assert scheduler.decisions == scheduler.waits == 0
        assert scheduler.ecf_decisions == 0


#: The headline cell and the 4+4 world of the hot-path budget, 20 s of
#: video: 1,105 and 2,783 Algorithm 1 evaluations.
WORLDS = {
    "headline": StreamingSpec(
        scheduler="ecf", wifi_mbps=0.3, lte_mbps=8.6, video_duration=20.0, seed=1
    ),
    "four_plus_four": StreamingSpec(
        scheduler="ecf",
        wifi_mbps=4.2,
        lte_mbps=8.6,
        video_duration=20.0,
        subflows_per_interface=4,
        seed=1,
    ),
}


@pytest.fixture
def ecf_run(monkeypatch):
    """Run a spec; return its result digest, its ECF scheduler, how many
    decisions took the exact path (``_decision_inputs``) and how many
    Algorithm 1 evaluations answered wait."""
    built = []
    real_build = runner.build

    def build(spec):
        built.append(real_build(spec))
        return built[-1]

    monkeypatch.setattr(runner, "build", build)
    counts = {"exact": 0, "waits": 0}
    decision_inputs, select = EcfScheduler._decision_inputs, EcfScheduler.select

    def counted_inputs(self, *args):
        counts["exact"] += 1
        return decision_inputs(self, *args)

    def counted_select(self, conn):
        before = self.ecf_decisions
        answer = select(self, conn)
        counts["waits"] += answer is None and self.ecf_decisions > before
        return answer

    monkeypatch.setattr(EcfScheduler, "_decision_inputs", counted_inputs)
    monkeypatch.setattr(EcfScheduler, "select", counted_select)

    def run(spec):
        built.clear()
        counts.update(exact=0, waits=0)
        result = run_spec(spec)
        (scheduler,) = [o for o in built if isinstance(o, EcfScheduler)]
        digest = hashlib.sha256(canonical_json(result.to_dict()).encode()).hexdigest()
        return digest, scheduler, dict(counts)

    return run


class TestBoundPath:
    """With no probe armed, ``select`` decides on a bound for delta; with
    the event log armed, every decision takes the exact path.  Whole
    worlds must not tell the two apart."""

    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_bare_run_decides_as_the_recorded_run(self, ecf_run, world):
        if probe.ACTIVE is not None:
            pytest.skip("a tool is armed (REPRO_SANITIZE, ...): no run is bare")
        digest, bare, bare_counts = ecf_run(WORLDS[world])
        with events.recording() as log:
            recorded_digest, recorded, recorded_counts = ecf_run(WORLDS[world])
        assert digest == recorded_digest
        for field in ("decisions", "waits", "ecf_decisions", "waiting"):
            assert getattr(bare, field) == getattr(recorded, field), field
        assert len(log.of_kind(events.EcfDecision)) == recorded.ecf_decisions
        assert recorded_counts["exact"] == recorded.ecf_decisions
        # The bound settles most decisions of the bare run (over 90 % here).
        assert 0 < bare_counts["exact"] < bare.ecf_decisions / 5

    def test_overridden_algorithm_keeps_its_hook_without_a_probe(self, ecf_run):
        """``ecf-nowait`` overrides ``_evaluate``, so even unobserved it
        never waits where stock ECF does."""
        assert EcfScheduler._stock_algorithm
        assert not NoWaitEcfScheduler._stock_algorithm
        spec = WORLDS["headline"]
        _, stock, stock_counts = ecf_run(spec)
        _, nowait, nowait_counts = ecf_run(dataclasses.replace(spec, scheduler="ecf-nowait"))
        assert type(nowait) is NoWaitEcfScheduler
        assert stock_counts["waits"] > 0
        assert nowait.ecf_decisions > 0 and nowait_counts["waits"] == 0

    def test_forced_decision_overrides_a_clear_cut_verdict(self, sim):
        """A forced decision goes through the exact path, probe or not."""
        conn = warmed_conn(sim)
        fast, slow = conn.subflows
        fast.cwnd = slow.cwnd = 10.0
        fast._in_flight = 10
        conn.unassigned_bytes = 2000 * conn.mss  # inequality 1 fails: send
        scheduler = conn.scheduler
        scheduler.force_decision(0, "wait")
        assert scheduler.select(conn) is None
        assert scheduler.waiting and scheduler.ecf_decisions == 1
        conn.unassigned_bytes = conn.mss  # Algorithm 1 says: wait
        scheduler.force_decision(1, "slow")
        assert scheduler.select(conn) is slow
        assert scheduler.ecf_decisions == 2
