"""Tests for the path schedulers: the ECF contribution and its baselines."""

import itertools
from pathlib import Path

import pytest

from repro.analysis import events
from repro.analysis.fixtures import FIXTURE_SCHEDULERS
from repro.core.blest import BlestScheduler
from repro.core.daps import DapsScheduler
from repro.core.ecf import EcfScheduler
from repro.core.extras import MpDashScheduler
from repro.core.minrtt import MinRttScheduler
from repro.core.spec import SCHEDULER_NAMES, CcSpec, SchedulerSpec, build
from repro.experiments.runner import StreamingSpec
from repro.experiments.spec import run_spec
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.bandwidth import (
    BandwidthSpec,
    ConstantBandwidth,
    PiecewiseBandwidth,
    RandomBandwidthProcess,
)
from repro.perf import counters as perf
from repro.sim.engine import Simulator
from repro.tcp.cc.coupled import CoupledController
from repro.tcp.cc.cubic import CubicController
from repro.tcp.cc.olia import OliaController
from repro.tcp.cc.reno import RenoController
from tests.conftest import build_connection, build_path, drain, load_example


def prepared_conn(sim, scheduler_name="minrtt", fast=(10.0, 0.005), slow=(1.0, 0.05), **kw):
    """Connection over a fast and a slow path with warmed RTT estimates."""
    conn = build_connection(sim, scheduler_name=scheduler_name, path_specs=(fast, slow), **kw)
    fast_sf, slow_sf = conn.subflows
    fast_sf.rtt.add_sample(0.010)
    slow_sf.rtt.add_sample(0.100)
    return conn, fast_sf, slow_sf


def fill_window(subflow):
    """Make the subflow's congestion window appear full."""
    subflow._in_flight = int(subflow.cwnd)


class TestRegistry:
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_all_names_construct(self, name):
        scheduler = build(SchedulerSpec.of(name))
        assert scheduler.name in (name, "minrtt")

    def test_default_alias(self):
        assert isinstance(build(SchedulerSpec.of("default")), MinRttScheduler)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            build(SchedulerSpec.of("nope"))

    def test_params_forwarded(self):
        assert build(SchedulerSpec.of("ecf", beta=0.5)).beta == 0.5

    def test_instances_are_fresh(self):
        assert build(SchedulerSpec.of("ecf")) is not build(SchedulerSpec.of("ecf"))

    def test_every_name_has_a_user(self):
        """The audit rule: a registered scheduler stays only while a
        benchmark experiment or an example names it."""
        root = Path(__file__).resolve().parents[1]
        sources = [
            path.read_text()
            for folder in ("benchmarks", "examples")
            for path in sorted((root / folder).rglob("*.py"))
        ]
        unused = [
            name for name in SCHEDULER_NAMES
            if not any(f'"{name}"' in text or f"'{name}'" in text for text in sources)
        ]
        assert unused == []


class TestKindTables:
    """One kind -> factory table per spec family, one lookup rule."""

    SHIPPED = {
        SchedulerSpec: {
            "minrtt": MinRttScheduler, "default": MinRttScheduler, "ecf": EcfScheduler,
            "blest": BlestScheduler, "daps": DapsScheduler,
            "mpdash": MpDashScheduler,
        },
        CcSpec: {
            "reno": RenoController, "coupled": CoupledController, "lia": CoupledController,
            "olia": OliaController, "cubic": CubicController,
        },
        BandwidthSpec: {
            "constant": ConstantBandwidth, "piecewise": PiecewiseBandwidth,
            "random": RandomBandwidthProcess,
        },
    }

    @pytest.mark.parametrize("family", [SchedulerSpec, CcSpec, BandwidthSpec])
    def test_every_shipped_kind_resolves_to_its_class(self, family):
        assert family.kinds() >= set(self.SHIPPED[family])
        for kind, cls in self.SHIPPED[family].items():
            assert family.factory(kind) is cls

    @pytest.mark.parametrize("family", [SchedulerSpec, CcSpec, BandwidthSpec])
    def test_every_family_folds_case(self, family):
        for kind in self.SHIPPED[family]:
            assert family.factory(kind.upper()) is family.factory(kind)

    def test_an_unknown_kind_names_its_family_and_the_choices(self):
        with pytest.raises(ValueError, match=r"unknown BandwidthSpec kind 'nope'; "
                           r"choose from \['constant', 'piecewise', 'random'\]"):
            build(BandwidthSpec.of("nope"))
        with pytest.raises(ValueError, match="unknown CcSpec kind 'nope'"):
            build(CcSpec.of("nope"))

    def test_register_adds_a_kind_to_its_family_only(self, monkeypatch):
        monkeypatch.setattr(BandwidthSpec, "_factories", dict(BandwidthSpec._factories))
        BandwidthSpec.register("Flat", ConstantBandwidth)
        assert "flat" in BandwidthSpec.kinds()
        assert "flat" not in SchedulerSpec.kinds() | CcSpec.kinds()
        assert build(BandwidthSpec.of("FLAT", rate_bps=1e6)).rate_bps == 1e6

    def test_build_refuses_what_is_not_a_spec(self):
        with pytest.raises(TypeError, match="cannot build a str"):
            build("ecf")


class TestSchedulerContract:
    """Every scheduler must only ever return sendable subflows."""

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_selected_subflow_can_send(self, sim, name):
        conn, fast_sf, slow_sf = prepared_conn(sim, name)
        conn.unassigned_bytes = 10 * conn.mss
        choice = conn.scheduler.select(conn)
        if choice is not None:
            assert choice.can_send()

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_none_when_all_full(self, sim, name):
        conn, fast_sf, slow_sf = prepared_conn(sim, name)
        fill_window(fast_sf)
        fill_window(slow_sf)
        conn.unassigned_bytes = 10 * conn.mss
        assert conn.scheduler.select(conn) is None

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_transfer_completes(self, sim, name):
        conn = build_connection(sim, scheduler_name=name)
        conn.write(2_000_000)
        drain(sim)
        assert conn.delivered_bytes == 2_000_000

    def test_attach_rejects_second_connection(self, sim):
        conn = build_connection(sim)
        with pytest.raises(RuntimeError):
            conn.scheduler.attach(build_connection(sim))


class TestNonFiniteEstimates:
    """Outage paths report inf transit estimates; schedulers must not
    plan traffic onto them or let inf/NaN poison comparisons."""

    def test_fastest_skips_nonfinite_srtt(self, sim):
        from repro.core.base import Scheduler

        conn, fast_sf, slow_sf = prepared_conn(sim)
        fast_sf.rtt = type(fast_sf.rtt)()  # no samples
        fast_sf._default_rtt = float("inf")
        assert Scheduler.fastest_and_sendable(conn) == (slow_sf, slow_sf)

    def test_fastest_none_when_all_nonfinite(self, sim):
        from repro.core.base import Scheduler

        conn, fast_sf, slow_sf = prepared_conn(sim)
        for sf in conn.subflows:
            sf.rtt = type(sf.rtt)()
            sf._default_rtt = float("nan")
        assert Scheduler.fastest_and_sendable(conn) == (None, None)

    def test_minrtt_avoids_path_with_infinite_estimate(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim)
        fast_sf.rtt = type(fast_sf.rtt)()
        fast_sf._default_rtt = float("inf")
        conn.unassigned_bytes = 10 * conn.mss
        assert conn.scheduler.select(conn) is slow_sf

    def test_mpdash_with_the_gate_shut_avoids_a_primary_in_outage(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "mpdash")
        conn.scheduler.cellular_active = False
        fast_sf.rtt = type(fast_sf.rtt)()
        fast_sf._default_rtt = float("inf")
        conn.unassigned_bytes = 10 * conn.mss
        assert conn.scheduler.select(conn) is None

    def test_ecf_sends_on_slow_when_fast_rtt_infinite(self):
        from repro.core.ecf import EcfInputs

        scheduler = EcfScheduler()
        inputs = EcfInputs(
            k_segments=4.0, rtt_f=float("inf"), rtt_s=0.1,
            cwnd_f=10.0, cwnd_s=10.0, delta=0.0, n_rounds=2.0, threshold=0.1,
        )
        assert scheduler._evaluate(inputs) is False

    def test_ecf_waits_when_slow_rtt_infinite(self):
        from repro.core.ecf import EcfInputs

        scheduler = EcfScheduler()
        inputs = EcfInputs(
            k_segments=4.0, rtt_f=0.01, rtt_s=float("inf"),
            cwnd_f=10.0, cwnd_s=10.0, delta=0.0, n_rounds=2.0,
            threshold=float("inf"),
        )
        assert scheduler._evaluate(inputs) is True

    def test_ecf_select_survives_outage_estimates(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, scheduler_name="ecf")
        for sf in conn.subflows:
            sf.rtt = type(sf.rtt)()
            sf._default_rtt = float("inf")
        conn.unassigned_bytes = 10 * conn.mss
        assert conn.scheduler.select(conn) is None


class TestMinRtt:
    def test_prefers_lowest_rtt(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim)
        assert conn.scheduler.select(conn) is fast_sf

    def test_falls_back_when_fast_full(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim)
        fill_window(fast_sf)
        assert conn.scheduler.select(conn) is slow_sf

    def test_never_waits_while_any_subflow_open(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim)
        fill_window(fast_sf)
        for _ in range(5):
            assert conn.scheduler.select(conn) is slow_sf


class TestEcfAlgorithm:
    """Branch-level checks of Algorithm 1."""

    def test_fast_subflow_used_when_available(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        assert conn.scheduler.select(conn) is fast_sf

    def test_paper_worked_example_waits(self, sim):
        """Section 3.2: RTTs 10 ms vs 100 ms, CWND 10 each, 1 packet left.

        Sending the leftover packet on the slow subflow finishes at 100 ms;
        waiting for the fast subflow finishes at ~20 ms.  ECF must wait.
        """
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = conn.mss  # k = 1 packet
        assert conn.scheduler.select(conn) is None
        assert conn.scheduler.waiting

    def test_large_backlog_uses_slow_subflow(self, sim):
        """With many packets left, extra bandwidth beats waiting."""
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = 1000 * conn.mss  # k >> cwnd_f
        assert conn.scheduler.select(conn) is slow_sf

    def test_first_inequality_boundary(self, sim):
        """k around cwnd_f * (RTT_s/RTT_f - 1) flips the decision."""
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        # RTT_f = 10 ms, RTT_s = 100 ms, sigma = 0 => wait iff (1+k/10)*10 < 100
        # i.e. k < 90 segments -- and the second inequality also holds.
        conn.unassigned_bytes = 50 * conn.mss
        assert conn.scheduler.select(conn) is None
        conn.scheduler.waiting = False
        conn.unassigned_bytes = 120 * conn.mss
        assert conn.scheduler.select(conn) is slow_sf

    @staticmethod
    def _near_tie_setup(sim, scheduler_name):
        """RTT_s < 2*RTT_f + delta: the slow path finishes one round of k
        before the fast path could even complete its waiting round, so the
        second inequality rejects waiting (while the delta margin still
        lets the first inequality pass)."""
        conn, fast_sf, slow_sf = prepared_conn(sim, scheduler_name)
        # Fast path: srtt ~ 50 ms with high variability (sigma ~ 40 ms).
        for sample in (0.01, 0.09, 0.01, 0.09, 0.01, 0.09):
            fast_sf.rtt.add_sample(sample)
        fast_sf.rtt.srtt = 0.05
        slow_sf.rtt.srtt = 0.08
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = 5 * conn.mss  # one round on either path
        return conn, fast_sf, slow_sf

    def test_second_inequality_blocks_wait_for_near_tie(self, sim):
        """RTT_s barely above RTT_f: waiting cannot beat sending now."""
        conn, fast_sf, slow_sf = self._near_tie_setup(sim, "ecf")
        assert conn.scheduler.select(conn) is slow_sf
        assert not conn.scheduler.waiting

    def test_second_inequality_can_be_disabled(self, sim):
        conn, fast_sf, slow_sf = self._near_tie_setup(sim, "ecf")
        conn.scheduler.use_second_inequality = False
        # Without the second check, the first inequality alone says wait.
        assert conn.scheduler.select(conn) is None

    def test_hysteresis_keeps_waiting_state(self, sim):
        """Once waiting, the threshold is inflated by (1 + beta)."""
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        scheduler = conn.scheduler
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        # Pick k so that n*RTT_f sits between the plain and inflated
        # thresholds: plain = 100 ms, inflated = 125 ms => n in (10, 12.5).
        conn.unassigned_bytes = 105 * conn.mss  # n = 11.5 -> 115 ms
        assert scheduler.select(conn) is slow_sf  # not waiting: 115 >= 100
        scheduler.waiting = True
        assert scheduler.select(conn) is None  # waiting: 115 < 125

    def test_waiting_cleared_when_first_inequality_fails(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        scheduler = conn.scheduler
        scheduler.waiting = True
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = 1000 * conn.mss
        assert scheduler.select(conn) is slow_sf
        assert not scheduler.waiting

    def test_sigma_margin_widens_wait_region(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = 95 * conn.mss  # just outside: n*RTT_f=105ms
        assert conn.scheduler.select(conn) is slow_sf
        # Inflate the slow path's RTT variability: delta grows, now waits.
        for r in (0.05, 0.2, 0.05, 0.2, 0.05, 0.2):
            slow_sf.rtt.add_sample(r)
        slow_sf.rtt.srtt = 0.1  # keep the mean comparable
        conn.scheduler.waiting = False
        assert conn.scheduler.select(conn) is None

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            EcfScheduler(beta=-0.1)

    def test_wait_statistics_counted(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = conn.mss
        with events.recording() as log:
            assert conn.scheduler.select(conn) is None
        assert [d.decision for d in log.of_kind(events.EcfDecision)] == ["wait"]


class TestBlest:
    def test_uses_fast_subflow_when_open(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "blest")
        assert conn.scheduler.select(conn) is fast_sf

    def test_waits_when_send_window_would_block(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(
            sim, "blest", send_window_bytes=60_000
        )
        fast_sf.cwnd = 30.0
        fill_window(fast_sf)
        slow_sf.cwnd = 10.0
        conn.unassigned_bytes = 100 * conn.mss
        # Fast path could push ~ 30 * 10 rounds * mss >> 60 kB window.
        assert conn.scheduler.select(conn) is None
        # A window-blocking wait, not a full house: the slow path had room.
        assert slow_sf.can_send()
        assert conn.scheduler._would_block(conn, fast_sf, slow_sf)

    def test_sends_on_slow_when_window_ample(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(
            sim, "blest", send_window_bytes=50_000_000
        )
        fast_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = 100 * conn.mss
        assert conn.scheduler.select(conn) is slow_sf

    def test_lambda_grows_on_observed_blocking(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "blest")
        scheduler = conn.scheduler
        before = scheduler.lambda_
        conn.reinjections = 5
        scheduler.select(conn)
        assert scheduler.lambda_ > before


class TestDaps:
    def test_schedule_interleaves_by_rtt_ratio(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "daps")
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        scheduler = conn.scheduler
        conn.unassigned_bytes = 100 * conn.mss
        picks = []
        for _ in range(20):
            choice = scheduler.select(conn)
            if choice is None:
                break
            picks.append(choice.sf_id)
            choice._in_flight += 1
        # All of the fast subflow's slots project earlier arrivals than any
        # slow-path slot, so the schedule front-loads the fast path.
        assert picks[:10] == [0] * 10
        assert 1 in picks  # but the slow path is still used

    def test_never_waits_when_any_subflow_open(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "daps")
        fill_window(fast_sf)
        conn.unassigned_bytes = 100 * conn.mss
        assert conn.scheduler.select(conn) is slow_sf

    def test_single_subflow_degenerates(self, sim):
        conn = build_connection(sim, scheduler_name="daps", path_specs=((10.0, 0.01),))
        conn.unassigned_bytes = conn.mss
        assert conn.scheduler.select(conn) is conn.subflows[0]

    def test_schedule_rebuilt_when_exhausted(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "daps")
        scheduler = conn.scheduler
        conn.unassigned_bytes = 1000 * conn.mss
        refills = 0
        for _ in range(50):
            before = scheduler._schedule
            choice = scheduler.select(conn)
            if choice is None:
                break
            # Each build lays out a fresh deque.
            refills += scheduler._schedule is not before
        assert refills >= 2


#: The tutorial's scheduler, which keeps no bookkeeping of its own.
EXAMPLE = "backlog (examples/custom_scheduler.py)"


def example_scheduler():
    return load_example("custom_scheduler").BacklogAwareScheduler()


class TestOneDecisionSite:
    """The connection counts and records every ``select`` answer, for
    every scheduler: the log, the scheduler and the perf counters agree."""

    @pytest.mark.parametrize("name", [*SCHEDULER_NAMES, *FIXTURE_SCHEDULERS, EXAMPLE])
    def test_every_answer_is_counted_and_recorded(self, name):
        with perf.collecting() as collector, events.recording() as log:
            sim = Simulator()
            paths = [
                build_path(sim, rate, delay, name=f"p{i}")
                for i, (rate, delay) in enumerate(((10.0, 0.005), (1.0, 0.05)))
            ]
            scheduler = example_scheduler() if name == EXAMPLE else build(SchedulerSpec.of(name))
            conn = MptcpConnection(
                sim, paths, scheduler, config=ConnectionConfig(handshake_delays=False)
            )
            conn.write(400_000)
            drain(sim)
        assert conn.delivered_bytes == 400_000
        counters = collector.snapshot()
        decisions = log.of_kind(events.Decision)
        assert {d.scheduler for d in decisions} == {scheduler.name}
        assert len(decisions) == scheduler.decisions == counters.scheduler_decisions > 0
        waits = [d for d in decisions if d.chosen_sf is None]
        assert len(waits) == scheduler.waits == counters.scheduler_waits
        if isinstance(scheduler, EcfScheduler):
            ecf = log.of_kind(events.EcfDecision)
            assert len(ecf) == scheduler.ecf_decisions
            ecf_waits = [d for d in ecf if d.decision == "wait"]
            assert len([d for d in waits if d.available]) == len(ecf_waits)


#: Registered pairs whose headline-cell results are still equal on every
#: compared field: the ACK-clocked connection offers at most one sendable
#: subflow per decision, so a scheduler that never waits cannot differ
#: from minRTT there.
_ALIKE = {("minrtt", "daps")}


def _distinct_pairs():
    for pair in itertools.combinations(SCHEDULER_NAMES, 2):
        marks = ()
        if pair in _ALIKE:
            marks = pytest.mark.xfail(
                strict=True, reason="ROADMAP item 2: ACK-clocked `select` seam"
            )
        yield pytest.param(*pair, marks=marks, id="-".join(pair))


class TestDistinctness:
    """Every registered scheduler must leave its own mark on the headline
    cell (WiFi 0.3 / LTE 8.6 Mbps, 20 s DASH video, seed 0): no two give
    equal results on any field but their own name, the per-packet
    ``ooo_delays`` and the ``trace``."""

    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for name in SCHEDULER_NAMES:
            spec = StreamingSpec(
                scheduler=name, wifi_mbps=0.3, lte_mbps=8.6, video_duration=20.0, seed=0
            )
            result = run_spec(spec).to_dict()
            for field in ("scheduler", "ooo_delays", "trace"):
                result.pop(field, None)
            result["spec"].pop("scheduler")
            out[name] = result
        return out

    def test_every_registered_scheduler_is_compared(self, results):
        assert sorted(results) == sorted(SCHEDULER_NAMES)
        assert _ALIKE <= set(itertools.combinations(SCHEDULER_NAMES, 2))

    @pytest.mark.parametrize("first, second", _distinct_pairs())
    def test_no_two_schedulers_give_equal_results(self, results, first, second):
        assert results[first] != results[second]
