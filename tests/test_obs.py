"""Tests for repro.obs: flight recorder, timeline export, run journal.

Covers lossless event round trips (every record kind), ring-buffer
bounding, uid non-aliasing across sequential connections, postmortem
bundle contents, the executor's failure path (bundle + journal), the
Perfetto exporter/validator, and the ``trace`` CLI front end.
"""

import json
from functools import partial

import pytest

from repro.analysis import check, events
from repro.analysis.reference import mandated_wait
from repro.apps.bulk import BulkDownloadSpec, run_bulk
from repro.cli import main as cli_main
from repro.experiments.exec import SCHEMA_VERSION, ExperimentExecutor, ResultCache
from repro.experiments.runner import StreamingSpec
from repro.experiments.spec import spec_hash, spec_to_dict
from repro.net.profiles import lte_config, wifi_config
from repro.obs import flight, timeline
from repro.obs.journal import RunJournal, read_journal


def bulk_spec(scheduler="ecf", size=96_000, seed=3):
    return BulkDownloadSpec(
        scheduler=scheduler,
        path_configs=(wifi_config(8.6), lte_config(8.6)),
        size=size,
        seed=seed,
    )


def sample_events():
    """One instance of every concrete record kind."""
    return [
        events.SegmentSent(
            t=0.1, sf_uid=3, sf_id=0, seq=2, dsn=1448, payload=1448,
            retransmitted=False, cwnd=10.0, in_flight=4,
        ),
        events.AckProcessed(
            t=0.2, sf_uid=3, sf_id=0, seq=2, rtt_sampled=True, cwnd=11.0,
            in_recovery=False, backoff=1.0,
        ),
        events.RtoFired(
            t=0.3, sf_uid=4, sf_id=1, backoff_before=1.0, backoff_after=2.0,
            rto=0.4, outstanding=3,
        ),
        events.FastRetransmit(t=0.4, sf_uid=4, sf_id=1, seq=9, recovery_point=12),
        events.IdleReset(
            t=0.5, sf_uid=3, sf_id=0, idle=1.2, rto=0.3, old_cwnd=40.0,
            new_cwnd=10.0, ssthresh=20.0,
        ),
        events.Delivered(t=0.6, recv_uid=7, dsn=2896, payload=1448, delay=0.05),
        events.Reinjection(
            t=0.7, conn="dash", dsn=2896, payload=1448, from_sf=1, to_sf=0,
            cause="rto",
        ),
        ecf_decision(t=0.8),
        events.Decision(
            t=0.9, sched_uid=2, scheduler="minrtt", chosen_sf=0,
            available=((0, 0.01), (1, 0.1)),
        ),
    ]


def ecf_decision(t=0.0, decision="fast", **kw):
    """A decision whose logged inputs mandate waiting (Algorithm 1 holds).

    Defaults: ineq1 is 2 * 0.01 < 0.1; ineq2 is ceil(4/2) * 0.1 >= 0.0225.
    Override fields to break either inequality.
    """
    base = dict(
        t=t, sched_uid=1, decision=decision, fastest_uid=3, fastest_sf=0,
        second_uid=4, second_sf=1, k_segments=4.0, cwnd_f=2.0, cwnd_s=2.0,
        rtt_f=0.01, rtt_s=0.1, delta=0.0025, beta=0.25,
        use_second_inequality=True, waiting_before=False, waiting_after=False,
        n_rounds=2.0, threshold=0.1,
    )
    base.update(kw)
    return events.EcfDecision(**base)


class TestEventRoundTrip:
    def test_registry_covers_every_concrete_kind(self):
        assert set(events.EVENT_TYPES.values()) == set(Event_subclasses())
        assert {type(e) for e in sample_events()} == set(events.EVENT_TYPES.values())

    def test_every_kind_survives_json(self):
        for sample in sample_events():
            wire = json.loads(json.dumps(sample.to_dict()))
            again = events.event_from_dict(wire)
            assert again == sample
            assert type(again) is type(sample)

    def test_minrtt_available_refrozen_to_tuples(self):
        sample = events.Decision(
            t=0.9, sched_uid=2, scheduler="blest", chosen_sf=None,
            available=((0, 0.01),),
        )
        again = events.event_from_dict(json.loads(json.dumps(sample.to_dict())))
        assert again.available == ((0, 0.01),)
        assert isinstance(again.available, tuple)
        assert isinstance(again.available[0], tuple)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="WarpDrive"):
            events.event_from_dict({"kind": "WarpDrive", "t": 0.0})


def Event_subclasses():
    out = []
    stack = list(events.Event.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        out.append(cls)
    return out


def delivered(dsn):
    """A minimal record, told apart by its ``dsn``."""
    return events.Delivered(t=float(dsn), recv_uid=1, dsn=dsn, payload=1, delay=0.0)


class TestEventLogBounding:
    def test_capacity_drops_oldest(self):
        log = events.EventLog(capacity=3)
        for dsn in range(5):
            log.emit(delivered(dsn))
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.dsn for e in log.events()] == [2, 3, 4]

    def test_tail(self):
        log = events.EventLog()
        for dsn in range(4):
            log.emit(delivered(dsn))
        assert [e.dsn for e in log.tail(2)] == [2, 3]
        assert [e.dsn for e in log.tail(99)] == [0, 1, 2, 3]
        assert log.tail(0) == []

    def test_uids_never_alias_across_sequential_connections(self):
        # Two back-to-back runs in one process: the second connection's
        # subflows must not reuse the first's uids, or merged logs would
        # attribute one subflow's events to another.
        with events.recording() as first:
            run_bulk(bulk_spec(seed=1, size=48_000))
        with events.recording() as second:
            run_bulk(bulk_spec(seed=1, size=48_000))
        uids_a = {e.sf_uid for e in first.of_kind(events.SegmentSent)}
        uids_b = {e.sf_uid for e in second.of_kind(events.SegmentSent)}
        assert uids_a and uids_b
        assert uids_a.isdisjoint(uids_b)


class TestFlightRecorder:
    def test_window_installs_and_restores(self):
        assert flight.current() is None
        with flight.flight() as recorder:
            assert flight.current() is recorder
            assert events.current() is recorder.log
            assert recorder.log.capacity == flight.CAPACITY
            with flight.flight() as inner:
                assert flight.current() is inner
            assert flight.current() is recorder
        assert flight.current() is None
        assert events.current() is None

    def test_current_rev_is_short_string(self):
        rev = flight.current_rev()
        assert isinstance(rev, str) and rev
        assert "/" not in rev and "\n" not in rev

    def test_adopts_run_objects(self):
        with flight.flight() as recorder:
            run_bulk(bulk_spec())
            adopted = recorder.counters().to_dict()
            assert recorder.sim_now() > 0.0
            assert len(recorder.log) > 0
        assert adopted["events_dispatched"] > 0

    def test_postmortem_bundle_contents(self, tmp_path, monkeypatch):
        monkeypatch.setattr(flight, "CAPACITY", 128)
        spec = bulk_spec()
        key = spec_hash(spec)
        with flight.flight() as recorder:
            run_bulk(spec)
            bundle = recorder.write_postmortem(
                kind="bulk",
                spec=spec_to_dict(spec),
                spec_hash=key,
                seed=spec.seed,
                rev="testrev",
                error=RuntimeError("boom"),
                root=tmp_path,
            )
        assert bundle == flight.postmortem_dir_for(key, root=tmp_path)
        loaded = timeline.load_bundle(bundle)
        manifest = loaded["manifest"]
        assert manifest["schema_version"] == flight.BUNDLE_SCHEMA_VERSION
        assert manifest["spec_hash"] == key
        assert manifest["rev"] == "testrev"
        assert manifest["error"] == {"type": "RuntimeError", "message": "boom"}
        assert manifest["sim_now"] > 0.0
        assert manifest["events"] == len(loaded["events"]) <= 128
        assert loaded["events"]  # typed records rebuilt from events.jsonl
        assert all(isinstance(e, events.Event) for e in loaded["events"])

    def test_postmortem_prefers_error_event_log(self, tmp_path, monkeypatch):
        # run_with_checks attaches its own (uncapped) log to escaping
        # errors; the bundle must carry that, not the shadowed ring.
        monkeypatch.setattr(flight, "CAPACITY", 8)
        full = events.EventLog()
        full.emit(delivered(42))
        error = RuntimeError("boom")
        error.event_log = full
        with flight.flight() as recorder:
            bundle = recorder.write_postmortem(
                kind="bulk", spec={}, spec_hash="cafe" * 10, error=error,
                root=tmp_path,
            )
        loaded = timeline.load_bundle(bundle)
        assert [e.dsn for e in loaded["events"]] == [42]


class TestExecutorObservability:
    def test_failed_run_writes_bundle_and_journal(self, tmp_path, monkeypatch):
        obs_root = tmp_path / "obs"
        monkeypatch.setenv(flight.ENV_VAR, "1")
        monkeypatch.setenv(flight.DIR_ENV_VAR, str(obs_root))
        monkeypatch.setenv(check.ENV_VAR, "1")
        spec = StreamingSpec(
            scheduler="ecf-nowait", wifi_mbps=8.6, lte_mbps=8.6,
            video_duration=10.0,
        )
        executor = ExperimentExecutor(jobs=1)
        with pytest.raises(check.CheckError):
            executor.run([spec])
        assert executor.stats.failed == 1

        bundle = flight.postmortem_dir_for(spec_hash(spec))
        assert (bundle / "manifest.json").exists()
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["kind"] == "streaming"
        assert manifest["error"]["type"] == "CheckError"

        jobs = [r for r in read_journal(obs_root / "journal.jsonl") if r["record"] == "job"]
        assert [job["status"] for job in jobs] == ["failed"]
        assert jobs[0]["spec_hash"] == spec_hash(spec)
        assert jobs[0]["postmortem"] == str(bundle)

        # Acceptance: the bundle exports to a valid Perfetto document with
        # per-subflow tracks and (mandated) ECF wait intervals.
        loaded = timeline.load_bundle(bundle)
        document = timeline.timeline_document(loaded["events"], loaded["traces"])
        problems = timeline.validate_trace_events(
            document, min_subflow_tracks=2, require_ecf_waits=True
        )
        assert problems == []

    def test_executor_bundle_records_the_spec_seed(self, tmp_path, monkeypatch):
        """The manifest's seed comes from the spec the executor ran, not
        from the ``{"kind", "spec"}`` envelope it was handed."""
        monkeypatch.setenv(flight.ENV_VAR, "1")
        monkeypatch.setenv(flight.DIR_ENV_VAR, str(tmp_path / "obs"))
        monkeypatch.setenv(check.ENV_VAR, "1")
        spec = StreamingSpec(
            scheduler="ecf-nowait", wifi_mbps=8.6, lte_mbps=8.6,
            video_duration=10.0, seed=7,
        )
        with pytest.raises(check.CheckError):
            ExperimentExecutor(jobs=1).run([spec])
        bundle = flight.postmortem_dir_for(spec_hash(spec))
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["seed"] == spec.seed
        assert manifest["spec"] == spec_to_dict(spec)

    def test_successful_batch_journals_executed(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        executor = ExperimentExecutor(jobs=1, journal=journal_path)
        executor.run([bulk_spec(size=48_000)])
        records = read_journal(journal_path)
        kinds = [r["record"] for r in records]
        assert kinds == ["batch_start", "job", "batch_end"]
        job = records[1]
        assert job["status"] == "executed"
        assert job["attempts"] == 1
        assert job["wall_s"] >= 0.0
        assert records[2]["failed"] == 0

    def test_cached_jobs_journal_as_cached(self, tmp_path):
        spec = bulk_spec(size=48_000)
        ExperimentExecutor(jobs=1, cache_dir=tmp_path / "cache").run([spec])
        journal_path = tmp_path / "journal.jsonl"
        executor = ExperimentExecutor(
            jobs=1, cache_dir=tmp_path / "cache", journal=journal_path
        )
        executor.run([spec])
        jobs = [r for r in read_journal(journal_path) if r["record"] == "job"]
        assert [job["status"] for job in jobs] == ["cached"]


class TestJournal:
    def test_records_are_stamped_and_ordered(self, tmp_path):
        journal = RunJournal(tmp_path / "deep" / "journal.jsonl")
        journal.batch_start(total=2)
        journal.job(spec_hash="abc", status="executed")
        journal.retry(spec_hash="abc", attempt=1, error="timeout")
        journal.batch_end(done=2)
        records = read_journal(journal.path)
        assert [r["record"] for r in records] == [
            "batch_start", "job", "retry", "batch_end",
        ]
        assert [r["seq"] for r in records] == [1, 2, 3, 4]
        assert all("wall" in r for r in records)

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"record": "job"}\n\n{"record": "batch_end"}\n')
        assert len(read_journal(path)) == 2

    def test_read_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not an object"):
            read_journal(path)


class TestJournalRotation:
    def entry(self, i):
        return {"spec_hash": f"h{i:05d}", "status": "executed",
                "padding": "x" * 64}

    def test_size_rotation_keeps_tail(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.obs.journal.RETAIN_TAIL", 10)
        journal = RunJournal(tmp_path / "journal.jsonl", max_bytes=4096)
        for i in range(200):
            journal.job(**self.entry(i))
        assert journal.rotated_path.exists()
        active = read_journal(journal.path)
        # The active file never exceeds the bound by more than one
        # record's worth, and always retains the most recent tail.
        assert len(active) >= 10
        assert active[-1]["spec_hash"] == "h00199"
        rotated = read_journal(journal.rotated_path)
        assert rotated  # older records moved aside, not lost

    def test_tail_overlap_is_contiguous(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.obs.journal.RETAIN_TAIL", 5)
        journal = RunJournal(tmp_path / "journal.jsonl", max_bytes=2048)
        for i in range(100):
            journal.job(**self.entry(i))
        active = read_journal(journal.path)
        seqs = [r["seq"] for r in active]
        assert seqs == sorted(seqs)
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))

    def test_no_bounds_means_no_rotation(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        for i in range(50):
            journal.job(**self.entry(i))
        assert not journal.rotated_path.exists()
        assert len(read_journal(journal.path)) == 50

    def test_a_rotated_journal_still_reads_back(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.obs.journal.RETAIN_TAIL", 5)
        journal = RunJournal(tmp_path / "journal.jsonl", max_bytes=2048)
        journal.batch_start(total=100)
        for i in range(100):
            journal.job(**self.entry(i))
        journal.batch_end(done=100)
        records = read_journal(journal.path)
        assert sum(r["record"] == "job" for r in records) >= 5
        assert records[-1]["record"] == "batch_end"

    def test_observer_sees_every_record_despite_rotation(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.obs.journal.RETAIN_TAIL", 5)
        seen = []
        journal = RunJournal(
            tmp_path / "journal.jsonl", max_bytes=2048, observer=seen.append,
        )
        for i in range(100):
            journal.job(**self.entry(i))
        assert len(seen) == 100

    def test_a_batch_holds_one_handle_and_stays_tailable(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.batch_start(total=2)
        handle = journal._handle
        assert handle is not None
        journal.job(**self.entry(0))
        assert journal._handle is handle
        # Flushed per record: a reader tailing the file sees the job now.
        assert [r["record"] for r in read_journal(journal.path)] == ["batch_start", "job"]
        journal.batch_end(done=1)
        assert journal._handle is None and handle.closed
        journal.job(**self.entry(1))  # outside a batch: open, append, close
        assert journal._handle is None
        assert len(read_journal(journal.path)) == 4

    def test_a_batch_rotates_like_single_records(self, tmp_path, monkeypatch):
        """Rotation inside a batch moves the open handle to the fresh
        file: both generations hold what open-append-close would have
        written."""
        monkeypatch.setattr("repro.obs.journal.RETAIN_TAIL", 5)

        def write(name, in_batch):
            journal = RunJournal(tmp_path / name, max_bytes=2048)
            # ``record`` by name writes the same line without the batch.
            start, end = (
                (journal.batch_start, journal.batch_end)
                if in_batch
                else (partial(journal.record, "batch_start"), partial(journal.record, "batch_end"))
            )
            start(total=100)
            for i in range(100):
                journal.job(**self.entry(i))
            end(done=100)
            return [
                [(r["record"], r["seq"]) for r in read_journal(path)]
                for path in (journal.path, journal.rotated_path)
            ]

        assert write("batch.jsonl", True) == write("single.jsonl", False)


class TestMandatedWaitReplay:
    def test_defaults_mandate_waiting(self):
        assert mandated_wait(ecf_decision()) is True

    def test_nonfinite_fast_rtt_never_waits(self):
        assert mandated_wait(
            ecf_decision(rtt_f=float("inf"))) is False

    def test_nonfinite_slow_rtt_always_waits(self):
        assert mandated_wait(
            ecf_decision(rtt_s=float("inf"))) is True

    def test_first_inequality_failing_sends(self):
        # n * rtt_f >= threshold: the fast path is no longer worth it.
        assert mandated_wait(
            ecf_decision(n_rounds=20.0)) is False

    def test_second_inequality_skipped_when_disabled(self):
        assert mandated_wait(
            ecf_decision(use_second_inequality=False, rtt_s=1e-6)) is True

    def test_second_inequality_failing_sends(self):
        # Slow path finishes well inside 2 * rtt_f + delta: use it.
        assert mandated_wait(
            ecf_decision(rtt_s=0.001, k_segments=1.0)) is False


class TestTimelineDocument:
    def synthetic_log(self):
        return [
            events.SegmentSent(
                t=0.01, sf_uid=3, sf_id=0, seq=1, dsn=0, payload=1448,
                retransmitted=False, cwnd=10.0, in_flight=1,
            ),
            events.SegmentSent(
                t=0.02, sf_uid=4, sf_id=1, seq=1, dsn=1448, payload=1448,
                retransmitted=False, cwnd=4.0, in_flight=1,
            ),
            events.FastRetransmit(
                t=0.03, sf_uid=3, sf_id=0, seq=1, recovery_point=5,
            ),
            events.AckProcessed(
                t=0.05, sf_uid=3, sf_id=0, seq=5, rtt_sampled=True,
                cwnd=5.0, in_recovery=False, backoff=1.0,
            ),
            ecf_decision(t=0.06, decision="wait"),
            ecf_decision(t=0.08, decision="fast", n_rounds=20.0),
            events.Delivered(t=0.09, recv_uid=7, dsn=0, payload=1448, delay=0.01),
        ]

    def test_tracks_spans_and_counters(self):
        document = timeline.timeline_document(
            self.synthetic_log(), traces={"cwnd.wifi0": [[0.0, 10.0], [0.1, 12.0]]}
        )
        assert document["displayTimeUnit"] == "ms"
        trace_events = document["traceEvents"]
        thread_names = {
            e["args"]["name"] for e in trace_events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "subflow 0 (uid 3)" in thread_names
        assert "subflow 1 (uid 4)" in thread_names
        assert "ecf scheduler (uid 1)" in thread_names

        spans = [e for e in trace_events if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert "recovery (fast rtx)" in names
        assert "ecf wait" in names  # the wait actually taken, 0.06 -> 0.08
        taken = next(e for e in spans if e["name"] == "ecf wait")
        assert taken["ts"] == 60_000 and taken["dur"] == 20_000

        counters = [e for e in trace_events if e["ph"] == "C"]
        assert any(e["name"] == "cwnd.wifi0" for e in counters)
        assert any(e["name"] == "cwnd sf0" for e in counters)

        assert timeline.validate_trace_events(
            document, min_subflow_tracks=2, require_ecf_waits=True
        ) == []

    def test_mandated_spans_survive_a_never_waiting_log(self):
        # ecf-nowait's signature: no "wait" decisions at all, yet the
        # replay still charts where Algorithm 1 demanded one.
        log = [ecf_decision(t=0.01, decision="slow"),
               ecf_decision(t=0.02, decision="slow", n_rounds=20.0)]
        document = timeline.timeline_document(log)
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in spans] == ["ecf wait (mandated)"]
        assert spans[0]["args"]["taken"] == "slow"

    def test_decisions_are_labelled_by_scheduler(self):
        log = [
            events.Decision(t=0.01, sched_uid=5, scheduler="daps", chosen_sf=1,
                            available=((0, 0.01), (1, 0.1))),
            events.Decision(t=0.02, sched_uid=6, scheduler="blest", chosen_sf=None,
                            available=()),
        ]
        trace_events = timeline.timeline_document(log)["traceEvents"]
        thread_names = {
            e["args"]["name"] for e in trace_events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names == {"daps scheduler (uid 5)", "blest scheduler (uid 6)"}
        picks = [e["name"] for e in trace_events if e["ph"] == "i"]
        assert picks == ["daps pick", "blest pick"]

    def test_nonfinite_args_sanitized(self, tmp_path):
        log = [ecf_decision(t=0.01, decision="fast", threshold=float("inf"))]
        document = timeline.timeline_document(log)
        instant = next(
            e for e in document["traceEvents"] if e["ph"] == "i"
        )
        assert instant["args"]["threshold"] is None
        # Must serialize under allow_nan=False.
        timeline.write_timeline(document, tmp_path / "deep" / "trace.json")
        assert (tmp_path / "deep" / "trace.json").exists()

    def test_empty_log_is_valid(self):
        document = timeline.timeline_document([])
        assert timeline.validate_trace_events(document) == []


class TestValidator:
    def test_rejects_non_document(self):
        assert timeline.validate_trace_events([1, 2]) != []
        assert timeline.validate_trace_events({"nope": 1}) != []

    def test_flags_structural_problems(self):
        document = {"traceEvents": [
            {"ph": "Z", "name": "bad", "ts": 0, "pid": 1, "tid": 1},
            {"ph": "X", "name": "no dur", "ts": 0, "pid": 1, "tid": 1},
            {"ph": "C", "name": "bad counter", "ts": 0, "pid": 1, "tid": 0,
             "args": {"value": float("inf")}},
            {"ph": "i", "name": "no ids", "ts": 0},
        ]}
        problems = timeline.validate_trace_events(document)
        assert any("unknown phase" in p for p in problems)
        assert any("'dur'" in p for p in problems)
        assert any("finite numeric args" in p for p in problems)
        assert any("pid" in p for p in problems)

    def test_track_and_wait_requirements(self):
        document = timeline.timeline_document([])
        assert timeline.validate_trace_events(
            document, min_subflow_tracks=2
        ) == ["expected >= 2 subflow tracks, found 0"]
        assert timeline.validate_trace_events(
            document, require_ecf_waits=True
        ) == ["no 'ecf wait' duration events found"]


def events_jsonl(records):
    """Records as a bundle's ``events.jsonl`` holds them (what
    :meth:`~repro.obs.flight.FlightRecorder.write_postmortem` writes)."""
    return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in records)


class TestFlatExports:
    def test_jsonl_round_trips(self, tmp_path):
        samples = sample_events()
        path = tmp_path / "events.jsonl"
        path.write_text(events_jsonl(samples))
        assert timeline.load_events_jsonl(path) == samples

    def test_jsonl_empty(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(events_jsonl([]))
        assert timeline.load_events_jsonl(path) == []


class TestLoadExportSource:
    def test_jsonl_source(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(events_jsonl(sample_events()))
        loaded = timeline.load_export_source(path)
        assert loaded["events"] == sample_events()
        assert loaded["traces"] == {}

    def test_result_json_source(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_text(json.dumps(
            {"kind": "streaming", "trace": {"cwnd.wifi0": [[0.0, 1.0]]}}
        ))
        loaded = timeline.load_export_source(path)
        assert loaded["traces"] == {"cwnd.wifi0": [[0.0, 1.0]]}

    def test_cache_entry_unwraps_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {
            "schema_version": SCHEMA_VERSION, "kind": "streaming",
            "result": {"trace": {"c": [[0.0, 2.0]]}, "perf": {"n": 1}},
        })
        loaded = timeline.load_export_source(cache.path_for("ab" * 32))
        assert loaded["traces"] == {"c": [[0.0, 2.0]]}
        assert loaded["perf"] == {"n": 1}

    def test_header_less_cache_entry_unwraps_result(self, tmp_path):
        # The layout older trees wrote: one document, no digest header.
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({
            "schema_version": 1, "kind": "streaming",
            "result": {"trace": {"c": [[0.0, 2.0]]}, "perf": {"n": 1}},
        }))
        loaded = timeline.load_export_source(path)
        assert loaded["traces"] == {"c": [[0.0, 2.0]]}
        assert loaded["perf"] == {"n": 1}

    def test_garbled_cache_entry_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cd" * 32, {
            "schema_version": SCHEMA_VERSION, "kind": "streaming",
            "result": {"trace": {"c": [[0.0, 2.0]]}},
        })
        path = cache.path_for("cd" * 32)
        path.write_text(path.read_text().replace("2.0", "9.0"))
        with pytest.raises(ValueError, match="Extra data"):  # header + body
            timeline.load_export_source(path)

    def test_non_bundle_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a postmortem bundle"):
            timeline.load_export_source(tmp_path)

    def test_empty_array_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="unrecognized export source"):
            timeline.load_export_source(path)

    def test_result_array_rejected(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(json.dumps([{"trace": {"a": [[0.0, 1.0]]}}]))
        with pytest.raises(ValueError, match="unrecognized export source"):
            timeline.load_export_source(path)


class TestTraceCli:
    def make_bundle(self, tmp_path):
        # A transfer outliving the join handshake puts traffic on both
        # subflows, so the export has two subflow tracks.
        spec = bulk_spec(scheduler="minrtt", size=200_000)
        with flight.flight() as recorder:
            run_bulk(spec)
            return recorder.write_postmortem(
                kind="bulk", spec=spec_to_dict(spec), spec_hash=spec_hash(spec),
                error=RuntimeError("boom"), root=tmp_path,
            )

    def test_export_and_validate(self, tmp_path, capsys):
        bundle = self.make_bundle(tmp_path)
        out = tmp_path / "nested" / "trace.json"
        assert cli_main(["trace", "export", str(bundle), "-o", str(out)]) in (0, None)
        document = json.loads(out.read_text())
        assert timeline.validate_trace_events(document, min_subflow_tracks=2) == []
        capsys.readouterr()
        rc = cli_main(["trace", "validate", str(out), "--min-subflow-tracks", "2"])
        assert rc in (0, None)
        assert "valid trace-event document" in capsys.readouterr().out

    def test_validate_fails_on_unmet_requirements(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"traceEvents": []}))
        rc = cli_main([
            "trace", "validate", str(path), "--require-ecf-waits",
        ])
        assert rc == 1
        assert "ecf wait" in capsys.readouterr().out
