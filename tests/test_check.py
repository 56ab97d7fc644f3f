"""Tests for the trace-level checking layer (repro.analysis).

Covers the event log, the temporal property catalog, the Algorithm 1
reference oracle, the seeded-violation fixture schedulers, the
event-order race detector, and the ``repro check`` CLI.
"""

from __future__ import annotations

import pytest

from repro.analysis import check, events
from repro.analysis.fixtures import FIXTURE_SCHEDULERS, NoWaitEcfScheduler
from repro.analysis.races import race_check
from repro.analysis.reference import EcfReference, replay_ecf, replay_minrtt
from repro.apps.bulk import BulkDownloadSpec, run_bulk
from repro.cli import main as cli_main
from repro.core.ecf import EcfScheduler
from repro.core.spec import SCHEDULER_NAMES, SchedulerSpec, build
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.profiles import lte_config, wifi_config
from repro.net.topology import LinkSpec, chain_path, shared_bottleneck
from repro.sim.engine import SimulationError, Simulator, forced_tie_break
from tests.conftest import build_connection


def bulk_spec(scheduler: str, size: int = 128_000, seed: int = 7) -> BulkDownloadSpec:
    return BulkDownloadSpec(
        scheduler=scheduler,
        path_configs=(wifi_config(8.6), lte_config(8.6)),
        size=size,
        seed=seed,
    )


def ecf_decision(**kw) -> events.EcfDecision:
    """A self-consistent "wait" decision; override fields to break it.

    Defaults satisfy both inequalities (k = 1 segment, fast RTT 10 ms,
    slow RTT 100 ms): n=2, 2 * 0.01 < 0.1 and 1 * 0.1 >= 0.02.
    """
    base = dict(
        t=1.0, sched_uid=1, decision="wait", fastest_uid=11, fastest_sf=0,
        second_uid=12, second_sf=1, k_segments=1.0, cwnd_f=10.0, cwnd_s=10.0,
        rtt_f=0.01, rtt_s=0.1, delta=0.0, beta=0.25, use_second_inequality=True,
        waiting_before=False, waiting_after=True, n_rounds=2.0, threshold=0.1,
    )
    base.update(kw)
    return events.EcfDecision(**base)


def props(*names):
    """Catalog subset by name, to exercise one property in isolation."""
    selected = [p for p in check.CATALOG if p.name in names]
    assert len(selected) == len(names)
    return selected


class TestEventLog:
    def test_emit_and_of_kind(self):
        log = events.EventLog()
        log.emit(events.Delivered(t=0.0, recv_uid=1, dsn=0, payload=10, delay=0.1))
        log.emit(ecf_decision())
        assert len(log) == 2
        assert len(log.of_kind(events.Delivered)) == 1
        assert len(log.of_kind(events.EcfDecision)) == 1
        assert log.of_kind(events.RtoFired) == []
        assert [e.kind for e in log] == ["Delivered", "EcfDecision"]

    def test_capacity_drops_oldest_and_counts(self):
        log = events.EventLog(capacity=2)
        for dsn in (0, 10, 20):
            log.emit(events.Delivered(t=0.0, recv_uid=1, dsn=dsn, payload=10, delay=0.0))
        assert len(log) == 2
        assert log.dropped == 1
        assert [e.dsn for e in log.of_kind(events.Delivered)] == [10, 20]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            events.EventLog(capacity=0)

    def test_to_dict_includes_kind(self):
        data = ecf_decision().to_dict()
        assert data["kind"] == "EcfDecision"
        assert data["decision"] == "wait"
        assert data["rtt_s"] == 0.1

    def test_start_stop_active(self):
        with events.recording():  # restores whatever the suite left active
            events.stop()
            assert not events.active()
            assert events.current() is None
            log = events.start()
            assert events.active()
            assert events.current() is log
            assert events.stop() is log
            assert not events.active()

    def test_recording_restores_previous_log(self):
        with events.recording() as outer:
            with events.recording() as inner:
                assert events.current() is inner
                assert inner is not outer
            assert events.current() is outer

    def test_recording_restores_on_exception(self):
        previous = events.current()
        with pytest.raises(RuntimeError):
            with events.recording():
                raise RuntimeError("boom")
        assert events.current() is previous


class TestInstrumentation:
    """A real run populates the log with every core record type."""

    def test_bulk_run_emits_core_kinds(self):
        with events.recording() as log:
            result = run_bulk(bulk_spec("ecf"))
        assert result.completion_time > 0
        assert log.of_kind(events.SegmentSent)
        assert log.of_kind(events.AckProcessed)
        assert log.of_kind(events.Delivered)
        assert log.of_kind(events.EcfDecision)

    def test_minrtt_run_emits_decisions(self):
        with events.recording() as log:
            run_bulk(bulk_spec("minrtt"))
        decisions = log.of_kind(events.Decision)
        assert {d.scheduler for d in decisions} == {"minrtt"}
        assert decisions
        # "no pick" decisions (all windows full) are legal; real picks must
        # appear too, and each must come from the logged candidate set.
        picks = [d for d in decisions if d.chosen_sf is not None]
        assert picks
        assert all(
            d.chosen_sf in {sf for sf, _ in d.available} for d in picks
        )

    def test_no_log_no_records(self):
        with events.recording() as shadowed:
            events.stop()
            run_bulk(bulk_spec("ecf"))  # must not blow up with no log armed
        assert len(shadowed) == 0

    def test_uids_disambiguate_subflows(self, sim):
        with events.recording() as log:
            conn = build_connection(sim, scheduler_name="minrtt")
            conn.write(100_000)
            sim.run(until=60.0)
        sent = log.of_kind(events.SegmentSent)
        by_uid = {s.sf_uid for s in sent}
        by_id = {s.sf_id for s in sent}
        assert len(by_uid) == len(by_id) == 2


class TestReferenceModel:
    def test_reference_waits_when_both_inequalities_hold(self):
        model = EcfReference(beta=0.25)
        decision = model.decide(
            k_segments=1.0, rtt_f=0.01, rtt_s=0.1, cwnd_f=10.0, cwnd_s=10.0, delta=0.0
        )
        assert decision == "wait"
        assert model.waiting

    def test_reference_sends_slow_when_first_inequality_fails(self):
        model = EcfReference(beta=0.25)
        model.waiting = True
        decision = model.decide(
            k_segments=5000.0, rtt_f=0.01, rtt_s=0.1,
            cwnd_f=10.0, cwnd_s=10.0, delta=0.0,
        )
        assert decision == "slow"
        assert not model.waiting  # inequality 1 failing clears hysteresis

    def test_reference_second_inequality_releases_wait(self):
        # ineq 1 holds, ineq 2 fails: slow send, waiting untouched.
        model = EcfReference(beta=0.25)
        decision = model.decide(
            k_segments=1.0, rtt_f=0.02, rtt_s=0.03, cwnd_f=10.0, cwnd_s=10.0,
            delta=0.015,
        )
        assert decision == "slow"
        assert not model.waiting

    def test_replay_clean_stream_no_divergence(self):
        assert replay_ecf([ecf_decision(), ecf_decision(
            t=2.0, waiting_before=True, waiting_after=True,
            threshold=1.25 * 0.1,
        )]) == []

    def test_replay_flags_wrong_decision(self):
        divergences = replay_ecf([ecf_decision(decision="slow", waiting_after=False)])
        assert len(divergences) == 1
        assert divergences[0].expected == "wait"
        assert divergences[0].actual == "slow"

    def test_replay_resyncs_after_divergence(self):
        # One bad decision must yield one report, not cascade into the
        # next (consistent-given-its-state) decision.
        stream = [
            ecf_decision(decision="slow", waiting_after=False),
            ecf_decision(t=2.0, waiting_before=False, waiting_after=True),
        ]
        assert len(replay_ecf(stream)) == 1

    def test_replay_flags_hysteresis_drift(self):
        # First decision latches waiting=True; the second claims the flag
        # was False without any intervening Algorithm 1 transition.
        stream = [
            ecf_decision(),
            ecf_decision(
                t=2.0, k_segments=5000.0, n_rounds=501.0, decision="slow",
                waiting_before=False, waiting_after=False,
            ),
        ]
        divergences = replay_ecf(stream)
        assert len(divergences) == 1
        assert "drifted" in divergences[0].detail

    def test_replay_rejects_mixed_schedulers(self):
        with pytest.raises(ValueError, match="one scheduler"):
            replay_ecf([ecf_decision(sched_uid=1), ecf_decision(sched_uid=2)])

    def test_minrtt_replay_flags_wrong_pick(self):
        bad = events.Decision(
            t=1.0, sched_uid=1, scheduler="minrtt", chosen_sf=1,
            available=((1, 0.05), (2, 0.01)),
        )
        divergences = replay_minrtt([bad])
        assert len(divergences) == 1
        assert divergences[0].expected == "sf=2"

    def test_minrtt_replay_accepts_lowest_id_tie_break(self):
        tie = events.Decision(
            t=1.0, sched_uid=1, scheduler="minrtt", chosen_sf=1,
            available=((1, 0.01), (2, 0.01)),
        )
        empty = events.Decision(
            t=2.0, sched_uid=1, scheduler="minrtt", chosen_sf=None, available=(),
        )
        assert replay_minrtt([tie, empty]) == []

    def test_minrtt_reference_reads_only_minrtt_records(self):
        # A DAPS slot may legally pick the slower subflow; only minRTT's
        # records are held to "smallest SRTT first".
        log = events.EventLog()
        for scheduler in ("daps", "minrtt"):
            log.emit(events.Decision(
                t=1.0, sched_uid=1, scheduler=scheduler, chosen_sf=1,
                available=((0, 0.01), (1, 0.1)),
            ))
        report = check.check_log(log, props("minrtt-reference-model"))
        assert len(report.violations) == 1


class TestPropertyCatalog:
    def test_clean_synthetic_log_passes(self):
        log = events.EventLog()
        log.emit(ecf_decision())
        log.emit(events.Delivered(t=1.0, recv_uid=1, dsn=0, payload=1000, delay=0.1))
        log.emit(events.Delivered(t=2.0, recv_uid=1, dsn=1000, payload=500, delay=0.1))
        report = check.check_log(log)
        assert report.ok
        assert report.events_seen == 3
        assert report.properties_checked == [p.name for p in check.CATALOG]

    def test_slow_send_during_mandated_wait(self):
        log = events.EventLog()
        log.emit(ecf_decision(decision="slow", waiting_after=False))
        report = check.check_log(log, props("ecf-wait-respects-inequality-1"))
        assert [v.prop for v in report.violations] == ["ecf-wait-respects-inequality-1"]

    def test_slow_send_released_by_inequality_2_is_legal(self):
        # ineq 1 holds but ineq 2 fails: rounds_s * rtt_s < 2 rtt_f + delta.
        log = events.EventLog()
        log.emit(ecf_decision(
            decision="slow", waiting_after=False,
            rtt_f=0.02, rtt_s=0.03, delta=0.015, threshold=0.045, n_rounds=2.0,
        ))
        report = check.check_log(log, props("ecf-wait-respects-inequality-1"))
        assert report.ok

    def test_beta_applied_without_waiting_flag(self):
        log = events.EventLog()
        log.emit(ecf_decision(threshold=1.25 * 0.1))  # waiting_before=False
        report = check.check_log(log, props("ecf-beta-only-when-waiting"))
        assert len(report.violations) == 1

    def test_beta_dropped_with_waiting_flag(self):
        log = events.EventLog()
        log.emit(ecf_decision(waiting_before=True, threshold=0.1))
        report = check.check_log(log, props("ecf-beta-only-when-waiting"))
        assert len(report.violations) == 1

    def test_cwnd_growth_inside_recovery(self):
        log = events.EventLog()
        for t, cwnd in ((1.0, 5.0), (1.1, 6.0)):
            log.emit(events.AckProcessed(
                t=t, sf_uid=1, sf_id=0, seq=int(t * 10), rtt_sampled=True,
                cwnd=cwnd, in_recovery=True, backoff=1.0,
            ))
        report = check.check_log(log, props("no-cwnd-growth-in-recovery"))
        assert len(report.violations) == 1
        assert "grew" in report.violations[0].message

    def test_cwnd_growth_after_recovery_exit_is_legal(self):
        log = events.EventLog()
        log.emit(events.AckProcessed(
            t=1.0, sf_uid=1, sf_id=0, seq=1, rtt_sampled=True,
            cwnd=5.0, in_recovery=True, backoff=1.0,
        ))
        log.emit(events.AckProcessed(
            t=1.1, sf_uid=1, sf_id=0, seq=2, rtt_sampled=True,
            cwnd=6.0, in_recovery=False, backoff=1.0,
        ))
        report = check.check_log(log, props("no-cwnd-growth-in-recovery"))
        assert report.ok

    def test_rto_backoff_must_double(self):
        log = events.EventLog()
        log.emit(events.RtoFired(
            t=1.0, sf_uid=1, sf_id=0, backoff_before=2.0, backoff_after=3.0,
            rto=1.0, outstanding=4,
        ))
        report = check.check_log(log, props("rto-backoff-doubles"))
        assert len(report.violations) == 1

    def test_rto_backoff_cap_is_legal(self):
        log = events.EventLog()
        log.emit(events.RtoFired(
            t=1.0, sf_uid=1, sf_id=0, backoff_before=64.0, backoff_after=64.0,
            rto=60.0, outstanding=1,
        ))
        report = check.check_log(log, props("rto-backoff-doubles"))
        assert report.ok

    def test_dsn_gap_detected(self):
        log = events.EventLog()
        log.emit(events.Delivered(t=1.0, recv_uid=1, dsn=0, payload=1000, delay=0.1))
        log.emit(events.Delivered(t=2.0, recv_uid=1, dsn=2000, payload=1000, delay=0.1))
        report = check.check_log(log, props("dsn-in-order-delivery"))
        assert len(report.violations) == 1
        assert "expected 1000" in report.violations[0].message

    def test_dsn_frontiers_are_per_receiver(self):
        log = events.EventLog()
        log.emit(events.Delivered(t=1.0, recv_uid=1, dsn=0, payload=1000, delay=0.1))
        log.emit(events.Delivered(t=1.5, recv_uid=2, dsn=0, payload=500, delay=0.1))
        log.emit(events.Delivered(t=2.0, recv_uid=1, dsn=1000, payload=100, delay=0.1))
        report = check.check_log(log, props("dsn-in-order-delivery"))
        assert report.ok

    def test_idle_reset_during_wait_detected(self):
        log = events.EventLog()
        log.emit(ecf_decision(t=5.0, fastest_uid=11))
        log.emit(events.IdleReset(
            t=6.0, sf_uid=11, sf_id=0, idle=2.0, rto=1.0,
            old_cwnd=20.0, new_cwnd=10.0, ssthresh=10.0,
        ))
        report = check.check_log(log, props("idle-reset-not-during-wait"))
        assert len(report.violations) == 1

    def test_idle_reset_before_wait_is_legal(self):
        log = events.EventLog()
        log.emit(ecf_decision(t=3.0, fastest_uid=11))  # before idle started
        log.emit(events.IdleReset(
            t=6.0, sf_uid=11, sf_id=0, idle=2.0, rto=1.0,
            old_cwnd=20.0, new_cwnd=10.0, ssthresh=10.0,
        ))
        report = check.check_log(log, props("idle-reset-not-during-wait"))
        assert report.ok

    def test_check_log_refuses_partial_history(self):
        log = events.EventLog(capacity=1)
        log.emit(events.Delivered(t=1.0, recv_uid=1, dsn=0, payload=10, delay=0.1))
        log.emit(events.Delivered(t=2.0, recv_uid=1, dsn=10, payload=10, delay=0.1))
        with pytest.raises(ValueError, match="dropped"):
            check.check_log(log)
        assert check.check_log(log, allow_partial=True) is not None

    def test_violations_sorted_by_time(self):
        log = events.EventLog()
        log.emit(events.Delivered(t=5.0, recv_uid=1, dsn=99, payload=10, delay=0.1))
        log.emit(events.RtoFired(
            t=2.0, sf_uid=1, sf_id=0, backoff_before=1.0, backoff_after=1.0,
            rto=1.0, outstanding=1,
        ))
        report = check.check_log(log)
        assert [v.t for v in report.violations] == [2.0, 5.0]

    def test_report_format_mentions_outcome(self):
        report = check.CheckReport(properties_checked=["p"], events_seen=3)
        assert "OK" in report.format()
        report.violations.append(check.Violation(prop="p", t=1.0, message="bad"))
        assert "1 violation" in report.format()


class TestFixturesAndOracle:
    """The seeded-violation schedulers are caught by the checker."""

    def test_fixture_names_registered_but_not_advertised(self):
        for name in FIXTURE_SCHEDULERS:
            assert name not in SCHEDULER_NAMES
            scheduler = build(SchedulerSpec.of(name))
            assert isinstance(scheduler, EcfScheduler)

    def test_nowait_fixture_diverges_from_reference(self, sim):
        conn = build_connection(sim, scheduler_name="ecf")
        scheduler = NoWaitEcfScheduler()
        conn.scheduler = scheduler
        scheduler.attach(conn)
        fast, slow = conn.subflows
        fast.rtt.add_sample(0.01)
        slow.rtt.add_sample(0.1)
        fast.cwnd = slow.cwnd = 10.0
        fast._in_flight = 10
        conn.unassigned_bytes = conn.mss  # Algorithm 1 says: wait
        with events.recording() as log:
            assert scheduler.select(conn) is slow  # fixture refuses to wait
        report = check.check_log(log)
        assert not report.ok
        assert {v.prop for v in report.violations} >= {
            "ecf-wait-respects-inequality-1",
            "ecf-reference-model",
        }

    def test_stock_bulk_run_passes_catalog(self):
        result, report = check.run_with_checks(run_bulk, bulk_spec("ecf"))
        assert result.size == 128_000
        assert report.ok
        assert report.events_seen > 0

    def test_broken_scheduler_fails_run_with_checks(self):
        with pytest.raises(check.CheckError, match="ecf-"):
            check.run_with_checks(run_bulk, bulk_spec("ecf-nowait"))

    def test_inverted_beta_fixture_trips_hysteresis_property(self):
        with pytest.raises(check.CheckError, match="ecf-beta-only-when-waiting"):
            check.run_with_checks(run_bulk, bulk_spec("ecf-invbeta"))

    def test_check_enabled_reads_environment(self, monkeypatch):
        monkeypatch.delenv(check.ENV_VAR, raising=False)
        assert not check.check_enabled()
        monkeypatch.setenv(check.ENV_VAR, "1")
        assert check.check_enabled()


class _ProbeResult:
    def __init__(self, order):
        self.order = order

    def to_dict(self):
        return {"order": self.order}


def _shared_bottleneck_run(duration):
    """Two-subflow MPTCP plus one TCP flow through one shared bottleneck
    link, built as ``benchmarks/test_ext_shared_bottleneck.py`` builds it."""
    sim = Simulator()
    mptcp_paths = shared_bottleneck(
        sim,
        access_a=LinkSpec(50.0, 0.005, name="a"),
        access_b=LinkSpec(50.0, 0.006, name="b"),
        bottleneck=LinkSpec(6.0, 0.01, queue_bytes=120_000, name="bn"),
    )
    shared_link = mptcp_paths[0].forward.hops[1]
    tcp_path = chain_path(sim, "tcp", [LinkSpec(50.0, 0.005, name="tcp-access")])
    tcp_path.forward.hops.append(shared_link)
    mptcp = MptcpConnection(
        sim, mptcp_paths, build(SchedulerSpec.of("minrtt")),
        config=ConnectionConfig(handshake_delays=False, congestion_control="coupled"),
        name="mptcp",
    )
    tcp = MptcpConnection(
        sim, [tcp_path], build(SchedulerSpec.of("minrtt")),
        config=ConnectionConfig(handshake_delays=False, congestion_control="reno"),
        name="tcp",
    )
    for conn in (mptcp, tcp):
        conn.write(10_000_000)
    sim.run(until=duration)
    return _ProbeResult({
        "delivered": [conn.delivered_bytes for conn in (mptcp, tcp)],
        "segments_sent": [sf.stats.segments_sent
                          for conn in (mptcp, tcp) for sf in conn.subflows],
        "retransmitted": [sf.stats.segments_retransmitted
                          for conn in (mptcp, tcp) for sf in conn.subflows],
        "bottleneck_drops": shared_link.stats.packets_dropped_queue,
        "ooo_delays": [conn.receiver.ooo_delays for conn in (mptcp, tcp)],
    })


def _order_dependent_run(_spec):
    """Result depends on which of two same-timestamp events fires first."""
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(1.0, lambda: order.append("b"))
    sim.run()
    return _ProbeResult("".join(order))


def _order_independent_run(_spec):
    sim = Simulator()
    total = []
    sim.schedule(1.0, lambda: total.append(1))
    sim.schedule(1.0, lambda: total.append(2))
    sim.run()
    return _ProbeResult(sum(total))


class TestRaceDetector:
    def test_flags_order_dependent_code(self):
        report = race_check(_order_dependent_run, None, orders=6)
        assert not report.ok
        assert all(f.fields == ["order"] for f in report.findings)
        assert "race" in report.format()

    def test_passes_order_independent_code(self):
        report = race_check(_order_independent_run, None, orders=6)
        assert report.ok
        assert "byte-identical" in report.format()

    def test_bulk_scenario_is_order_independent(self):
        report = race_check(run_bulk, bulk_spec("ecf", size=64_000), orders=3)
        assert report.ok

    def test_shared_bottleneck_is_order_independent(self):
        """Three flows queue at one link: simultaneous arrivals from two
        access hops must serve in one canonical order, not schedule order."""
        report = race_check(_shared_bottleneck_run, 4.0, orders=3)
        assert report.ok, report.format()

    def test_seed_list_must_match_orders(self):
        with pytest.raises(ValueError):
            race_check(_order_independent_run, None, orders=2, seeds=[1, 2, 3])
        with pytest.raises(ValueError):
            race_check(_order_independent_run, None, orders=0)


class TestEngineTieBreak:
    def test_random_mode_is_deterministic_per_seed(self):
        def run_once():
            with forced_tie_break("random", seed=3):
                return _order_dependent_run(None).order

        assert run_once() == run_once()

    def test_invalid_mode_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(tie_break="bogus")

    def test_forced_context_restores(self):
        with forced_tie_break("random", seed=1):
            assert Simulator().tie_break == "random"
        assert Simulator().tie_break == "fifo"

    def test_fifo_preserves_insertion_order(self):
        assert _order_dependent_run(None).order == "ab"


class TestCheckCli:
    def test_stock_bulk_cell_passes(self, capsys):
        code = cli_main([
            "check", "--scenario", "bulk", "--scheduler", "ecf",
            "--size", "64k", "--orders", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "bulk/ecf" in out
        assert "races:bulk/ecf" in out

    @pytest.mark.parametrize("scenario", ["bulk", "dash"])
    def test_broken_fixture_cell_fails(self, capsys, scenario):
        code = cli_main([
            "check", "--scenario", scenario, "--scheduler", "ecf-nowait",
            "--size", "128k", "--video", "10", "--skip-races",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("fixture", ["ecf-noineq2", "ecf-invbeta"])
    def test_other_fixtures_fail_their_dash_cell(self, capsys, fixture):
        # ecf-nowait is the case above; every fixture overrides Algorithm 1,
        # so each must stay caught however stock ECF decides unobserved.
        code = cli_main([
            "check", "--scenario", "dash", "--scheduler", fixture,
            "--video", "10", "--skip-races",
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["check", "--scheduler", "warpdrive"])
