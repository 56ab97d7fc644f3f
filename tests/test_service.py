"""Tests for the campaign service (repro.service).

Covers the store's state machine and durability, backend-config round
trips through the store, and the runner's submit/drain/requeue/fetch
loop -- including the acceptance path: a campaign killed mid-drain
resumes from SQLite without re-simulating finished jobs (proved by
"cached" journal records).
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.apps.bulk import BulkDownloadResult, BulkDownloadSpec
from repro.experiments.exec import ExperimentExecutor, ResultCache
from repro.experiments.grid import wget_matrix
from repro.experiments.runner import StreamingSpec
from repro.experiments.spec import (
    canonical_json,
    register_experiment,
    spec_hash,
    spec_to_dict,
    wire_hash,
)
from repro.net.profiles import lte_config, wifi_config
from repro.service import (
    CampaignError,
    CampaignRunner,
    CampaignStore,
    InlineBackendConfig,
    PoolBackendConfig,
    TransitionError,
    backend_config_from_dict,
)
from tests.conftest import flip_a_digit, previous_layout_entry


def bulk_specs(n=3, size=64 * 1024):
    return [
        BulkDownloadSpec(
            scheduler="ecf",
            path_configs=(wifi_config(2.0), lte_config(float(2 + i))),
            size=size,
            seed=i,
        )
        for i in range(n)
    ]


@dataclasses.dataclass(frozen=True)
class FlakySpec:
    """Test-only spec that fails until its marker counts enough attempts."""

    kind = "test_flaky"

    marker: str
    succeed_after: int = 2

    def to_dict(self):
        return {"marker": self.marker, "succeed_after": self.succeed_after}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class FlakyResult:
    attempts: int

    def to_dict(self):
        return {"attempts": self.attempts}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


def _run_flaky(spec: FlakySpec) -> FlakyResult:
    marker = Path(spec.marker)
    count = int(marker.read_text()) if marker.exists() else 0
    count += 1
    marker.write_text(str(count))
    if count < spec.succeed_after:
        raise RuntimeError(f"deliberate failure on attempt {count}")
    return FlakyResult(attempts=count)


register_experiment("test_flaky", FlakySpec.from_dict, _run_flaky, FlakyResult.from_dict)


class TestStore:
    def test_submit_is_idempotent_by_spec_hash(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            cid = store.ensure_campaign("sweep", {"kind": "inline"})
            specs = bulk_specs(3)
            assert store.add_jobs(cid, specs) == 3
            # Same content, fresh instances: nothing new to add.
            assert store.add_jobs(cid, bulk_specs(3)) == 0
            # A superset only adds the genuinely new jobs.
            assert store.add_jobs(cid, bulk_specs(5)) == 2
            assert store.counts(cid)["pending"] == 5

    def test_ensure_campaign_reuses_by_name(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            first = store.ensure_campaign("fig14", {"kind": "inline"})
            again = store.ensure_campaign("fig14", {"kind": "pool", "jobs": 4})
            assert first == again
            # The stored backend keeps describing the original submission.
            assert store.campaign("fig14").backend == {"kind": "inline"}

    def test_state_machine_happy_path(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            cid = store.ensure_campaign("sweep", {"kind": "inline"})
            (spec,) = bulk_specs(1)
            store.add_jobs(cid, [spec])
            key = spec_hash(spec)
            store.claim(cid, key)
            assert store.job(cid, key).status == "running"
            assert store.job(cid, key).attempts == 1
            store.mark_done(cid, key, result_path="/tmp/x.json", wall_s=0.5)
            job = store.job(cid, key)
            assert job.status == "done"
            assert job.result_path == "/tmp/x.json"

    def test_cache_hit_shortcut_pending_to_done(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            cid = store.ensure_campaign("sweep", {"kind": "inline"})
            (spec,) = bulk_specs(1)
            store.add_jobs(cid, [spec])
            store.mark_done(cid, spec_hash(spec))  # no claim needed
            assert store.counts(cid)["done"] == 1

    def test_illegal_transitions_raise(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            cid = store.ensure_campaign("sweep", {"kind": "inline"})
            (spec,) = bulk_specs(1)
            store.add_jobs(cid, [spec])
            key = spec_hash(spec)
            with pytest.raises(TransitionError):
                store.mark_failed(cid, key, "Boom", "pending cannot fail")
            assert store.claim(cid, key) is True
            store.mark_done(cid, key)
            # Done is terminal: the claim is simply lost, not an error
            # (another racing runner losing a claim is routine).
            assert store.claim(cid, key) is False
            with pytest.raises(KeyError):
                store.claim(cid, "no-such-hash")

    def test_reset_running_recovers_orphans(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            cid = store.ensure_campaign("sweep", {"kind": "inline"})
            specs = bulk_specs(3)
            store.add_jobs(cid, specs)
            store.claim(cid, spec_hash(specs[0]))
            store.claim(cid, spec_hash(specs[1]))
            assert store.reset_running(cid) == 2
            counts = store.counts(cid)
            assert counts["pending"] == 3 and counts["running"] == 0
            # Attempts survive the reset -- the crash burned a try.
            assert store.job(cid, spec_hash(specs[0])).attempts == 1

    def test_requeue_respects_attempt_cap(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            cid = store.ensure_campaign("sweep", {"kind": "inline"})
            (spec,) = bulk_specs(1)
            store.add_jobs(cid, [spec])
            key = spec_hash(spec)
            store.claim(cid, key)
            store.mark_failed(cid, key, "RuntimeError", "boom")
            # Below the cap each failure requeues...
            assert store.requeue_failed(cid, max_attempts=3) == (1, 0)
            store.claim(cid, key)
            store.mark_failed(cid, key, "RuntimeError", "boom")
            assert store.requeue_failed(cid, max_attempts=3) == (1, 0)
            store.claim(cid, key)
            store.mark_failed(cid, key, "RuntimeError", "boom")
            # ...but at the cap the job stays failed.
            assert store.requeue_failed(cid, max_attempts=3) == (0, 1)
            assert store.job(cid, key).status == "failed"
            assert store.job(cid, key).attempts == 3

    def test_state_survives_reopen(self, tmp_path):
        db = tmp_path / "c.db"
        specs = bulk_specs(2)
        with CampaignStore(db) as store:
            cid = store.ensure_campaign("sweep", {"kind": "pool", "jobs": 4})
            store.add_jobs(cid, specs)
            store.claim(cid, spec_hash(specs[0]))
            store.mark_done(cid, spec_hash(specs[0]))
        with CampaignStore(db) as store:
            campaign = store.campaign("sweep")
            assert campaign.backend == {"kind": "pool", "jobs": 4}
            counts = store.counts(campaign.id)
            assert counts == {"pending": 1, "running": 0, "done": 1, "failed": 0}
            job = store.job(campaign.id, spec_hash(specs[1]))
            assert job.spec["spec"]["size"] == specs[1].size

    def test_journal_index(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            cid = store.ensure_campaign("sweep", {"kind": "inline"})
            store.record_journal(cid, {"record": "job", "status": "cached"})
            store.record_journal(cid, {"record": "batch_end", "executed": 0})
            jobs = store.journal_records(cid, record="job")
            assert [r["status"] for r in jobs] == ["cached"]
            assert len(store.journal_records(cid)) == 2

    def test_journal_summary_counts_in_sql(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            cid = store.ensure_campaign("sweep", {"kind": "inline"})
            other = store.ensure_campaign("other", {"kind": "inline"})
            assert store.journal_summary(cid) == ({}, 0)
            for status in ("cached", "executed", "cached", "failed"):
                store.record_journal(cid, {"record": "job", "status": status})
            store.record_journal(cid, {"record": "job"})  # no status at all
            store.record_journal(cid, {"record": "retry", "attempt": 1})
            store.record_journal(cid, {"record": "batch_end", "status": "cached"})
            store.record_journal(other, {"record": "job", "status": "cached"})
            assert store.journal_summary(cid) == (
                {"cached": 2, "executed": 1, "failed": 1, "unknown": 1}, 1,
            )


class TestTransactionScope:
    """``CampaignStore.transaction()``: many calls, one commit, and
    nothing kept from a scope that raises."""

    @staticmethod
    def _two_pending(store):
        cid = store.ensure_campaign("sweep", {"kind": "inline"})
        specs = bulk_specs(2)
        store.add_jobs(cid, specs)
        return cid, [spec_hash(spec) for spec in specs]

    def test_commits_once_then_reports_in_order(self, tmp_path):
        db = tmp_path / "c.db"
        with CampaignStore(db) as store, CampaignStore(db) as peer:
            cid, (first, second) = self._two_pending(store)
            with store.transaction():
                assert store.claim(cid, first) and store.claim(cid, second)
                store.record_journal(cid, {"record": "job", "status": "cached"})
                store.mark_done(cid, first)
                # Nothing is visible to another connection until the
                # scope commits.
                assert peer.counts(cid)["pending"] == 2
                assert peer.journal_records(cid) == []
            assert peer.counts(cid) == {"pending": 0, "running": 1, "done": 1, "failed": 0}
            assert len(peer.journal_records(cid)) == 1

    def test_a_scope_that_raises_keeps_and_reports_nothing(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            cid, (first, second) = self._two_pending(store)
            with pytest.raises(TransitionError):
                with store.transaction():
                    store.claim(cid, first)
                    store.record_journal(cid, {"record": "job"})
                    store.mark_failed(cid, second, "Boom", "pending cannot fail")
            assert store.counts(cid)["pending"] == 2
            assert store.job(cid, first).attempts == 0
            assert store.journal_records(cid) == []
            # Outside a scope a call commits by itself again.
            assert store.claim(cid, first)
        with CampaignStore(tmp_path / "c.db") as store:
            assert store.counts(cid)["running"] == 1

    def test_a_move_that_opens_the_scope_commits_with_it(self, tmp_path):
        """A batched move's savepoint must not end a scope it opened."""
        db = tmp_path / "c.db"
        with CampaignStore(db) as store, CampaignStore(db) as peer:
            cid, (first, second) = self._two_pending(store)
            with pytest.raises(RuntimeError, match="later in the scope"):
                with store.transaction():
                    store.mark_done(cid, first)
                    assert peer.counts(cid)["done"] == 0
                    raise RuntimeError("later in the scope")
            assert peer.counts(cid)["done"] == 0

    def test_scopes_do_not_nest(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            with pytest.raises(RuntimeError, match="do not nest"):
                with store.transaction():
                    with store.transaction():
                        pass


def store_rows(store):
    """Every ``jobs`` and ``journal`` row but the bookkeeping timestamps."""
    jobs = store._conn.execute(
        "SELECT campaign_id, spec_hash, kind, spec, status, attempts, wall_s,"
        " result_path, error_type, error_message, postmortem FROM jobs ORDER BY id"
    ).fetchall()
    journal = store._conn.execute(
        "SELECT campaign_id, record, entry FROM journal ORDER BY id"
    ).fetchall()
    return [tuple(row) for row in jobs], [tuple(row) for row in journal]


#: What a job is before a drain looks at it, as the one-row calls make it.
START_STATES = ("pending", "running", "done", "failed")


@st.composite
def campaign_looks(draw):
    """A campaign of pending, running, done and failed jobs, the jobs a
    second drainer claims after the drain's snapshot, the drain's claim
    ``limit``, and a look: the outcomes it books, in order."""
    n = draw(st.integers(1, 6))
    return {
        "start": draw(st.lists(st.sampled_from(START_STATES), min_size=n, max_size=n)),
        "stolen": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        "limit": draw(st.none() | st.integers(0, n)),
        "order": draw(st.permutations(range(n))),
        "fates": draw(
            st.lists(st.sampled_from([None, "done", "done", "failed"]), min_size=n, max_size=n)
        ),
        # Fates on the jobs this drain claimed only (always legal), or on
        # any job (pending cannot fail, done and failed cannot finish).
        "claimed_only": draw(st.booleans()),
        "extra": draw(st.sampled_from([None, "missing", "twice"])),
    }


class TestBatchEqualsRows:
    """A look's batched writes -- one claim statement, one journal
    ``executemany``, one guarded ``executemany`` per target state --
    leave every row what the one-row calls leave applied in order, and
    an illegal move raises the same error and keeps nothing of the
    look."""

    @staticmethod
    def _campaign(path, specs, start):
        store = CampaignStore(path)
        cid = store.ensure_campaign("sweep", {"kind": "inline"})
        store.add_jobs(cid, specs)
        for spec, state in zip(specs, start):
            key = spec_hash(spec)
            if state != "pending":
                assert store.claim(cid, key)
            if state == "done":
                store.mark_done(cid, key, result_path=f"/cache/{key}.json", wall_s=1.5)
            elif state == "failed":
                store.mark_failed(cid, key, "Boom", "it broke", postmortem="/pm", wall_s=0.25)
        return store, cid

    @settings(max_examples=60, deadline=None)
    @given(case=campaign_looks())
    def test_a_batched_look_leaves_what_the_one_row_calls_leave(self, case):
        from repro.obs.journal import RunJournal

        specs = bulk_specs(len(case["start"]))
        keys = [spec_hash(spec) for spec in specs]
        with tempfile.TemporaryDirectory() as root:
            sides = {}
            for side in ("rows", "batched"):
                db = Path(root) / f"{side}.db"
                store, cid = self._campaign(db, specs, case["start"])
                pending = [
                    key for key, (_kind, status) in store.statuses(cid).items()
                    if status == "pending"
                ]
                # A second drainer claims after this drain's snapshot.
                with CampaignStore(db) as peer:
                    for key, stolen in zip(keys, case["stolen"]):
                        if stolen and key in pending:
                            assert peer.claim(cid, key)
                limit = case["limit"]
                if side == "batched":
                    claimed = store.claim_many(cid, pending, limit)
                else:
                    claimed = []
                    with store.transaction():
                        for key in pending:
                            if limit is not None and len(claimed) >= limit:
                                break
                            if store.claim(cid, key):
                                claimed.append(key)
                sides[side] = (store, cid, claimed)

            rows_store, cid, claimed = sides["rows"]
            assert sides["batched"][2] == claimed
            assert store_rows(sides["batched"][0]) == store_rows(rows_store)
            before = store_rows(rows_store)

            # The look: its outcomes, their journal lines as written.
            journal = RunJournal(Path(root) / "journal.jsonl")
            done, failed, lines = [], [], []
            for index in case["order"]:
                fate, key = case["fates"][index], keys[index]
                if fate is None or (case["claimed_only"] and key not in claimed):
                    continue
                if fate == "done":
                    done.append((key, f"/cache/{key}.json", 0.125 * index))
                else:
                    failed.append((key, "RuntimeError", f"job {index} broke", None, 0.5))
                entry = journal.job(spec_hash=key, kind="bulk_download", status=fate, attempts=1)
                lines.append((entry, journal.last_text))
            if case["extra"] == "missing":
                done.append(("f" * 64, None, None))
            elif case["extra"] == "twice" and done:
                done.append(done[0])

            def look_by_rows(store):
                with store.transaction():
                    for entry, _text in lines:
                        store.record_journal(cid, entry)
                    for row in done:
                        store.mark_done(cid, *row)
                    for row in failed:
                        store.mark_failed(cid, *row)

            def look_batched(store):
                with store.transaction():
                    store.record_journal_lines(cid, [("job", text) for _entry, text in lines])
                    store.mark_done_many(cid, done)
                    store.mark_failed_many(cid, failed)

            errors = {}
            for side, look in (("rows", look_by_rows), ("batched", look_batched)):
                store = sides[side][0]
                try:
                    look(store)
                except (KeyError, TransitionError) as exc:
                    errors[side] = (type(exc), str(exc))
                assert not store._conn.in_transaction
            assert errors.get("batched") == errors.get("rows")
            after = store_rows(sides["batched"][0])
            assert after == store_rows(rows_store)
            if errors:
                assert after == before  # the look died whole
            else:
                # Against the state machine itself: each booked job is in
                # its fate, its index row is the journal's line.
                status = {job.spec_hash: job.status for job in rows_store.jobs(cid)}
                for row, fate in [(row, "done") for row in done] + [(row, "failed") for row in failed]:
                    assert status[row[0]] == fate
                assert [entry for _, _, entry in after[1]] == [text for _, text in lines]
            for store, _cid, _claimed in sides.values():
                store.close()

    def test_a_batch_outside_a_scope_keeps_nothing_when_a_row_is_illegal(self, tmp_path):
        db = tmp_path / "c.db"
        with CampaignStore(db) as store, CampaignStore(db) as peer:
            cid = store.ensure_campaign("sweep", {"kind": "inline"})
            specs = bulk_specs(3)
            store.add_jobs(cid, specs)
            keys = [spec_hash(spec) for spec in specs]
            assert store.claim_many(cid, keys) == keys
            store.mark_done(cid, keys[1])
            before = store_rows(store)
            rows = [(key, None, 0.5) for key in keys]
            with pytest.raises(TransitionError, match=f"job {keys[1][:12]} cannot go 'done' -> 'done'"):
                store.mark_done_many(cid, rows)
            assert not store._conn.in_transaction
            assert store_rows(store) == store_rows(peer) == before
            with pytest.raises(KeyError, match="no job 'nope'"):
                store.mark_failed_many(cid, [(keys[0], "E", "m", None, 0.1), ("nope", "E", "m", None, 0.1)])
            assert store_rows(peer) == before
            # A key given twice moves once; its second move is illegal.
            with pytest.raises(TransitionError, match=f"job {keys[0][:12]} cannot go 'done' -> 'done'"):
                store.mark_done_many(cid, [rows[0], rows[2], rows[0]])
            assert store_rows(peer) == before
            store.mark_done_many(cid, [rows[0], rows[2]])
            assert store.counts(cid)["done"] == 3

    def test_a_claim_limit_takes_the_earliest_inserted_jobs(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            cid = store.ensure_campaign("sweep", {"kind": "inline"})
            specs = bulk_specs(4)
            store.add_jobs(cid, specs)
            keys = [spec_hash(spec) for spec in specs]
            assert store.claim(cid, keys[1])
            # Whatever order the keys come in, and past a job taken before.
            assert store.claim_many(cid, keys[::-1], limit=2) == [keys[0], keys[2]]
            assert store.claim_many(cid, keys[::-1]) == [keys[3]]

    def test_the_batched_and_one_row_paths_store_the_same_bytes(self, tmp_path):
        """Spec keys and text as the parent's definitions give them, the
        index rows as the JSONL lines, and every row as a campaign moved
        one call at a time through the same drain leaves it."""
        from repro.workloads.web import WebBrowsingSpec

        specs = [
            *bulk_specs(2, size=16 * 1024),
            StreamingSpec(scheduler="ecf", video_duration=10.0, seed=1),
            WebBrowsingSpec(
                scheduler="minrtt",
                path_configs=(wifi_config(1.0), lte_config(8.6)),
                seed=2,
                object_sizes=(10_000, 250_000),
            ),
        ]
        cache = tmp_path / "cache"
        ExperimentExecutor(cache_dir=cache).run(specs)
        entries = sorted(path.read_bytes() for path in cache.rglob("*.json"))
        with CampaignStore(tmp_path / "batched.db") as batched:
            runner = CampaignRunner(
                batched, "sweep", cache_dir=cache, journal=tmp_path / "batched.jsonl"
            )
            runner.submit(specs)
            assert runner.drain()["done"] == len(specs)
            cid = runner.campaign_id
            lines = (tmp_path / "batched.jsonl").read_text().splitlines()
            assert [text for _, _, text in store_rows(batched)[1]] == lines
            jobs = {row[1]: row for row in store_rows(batched)[0]}
            for spec in specs:
                wire = spec_to_dict(spec)
                assert jobs[wire_hash(wire)][3] == canonical_json(wire)

            with CampaignStore(tmp_path / "rows.db") as rows:
                assert rows.ensure_campaign("sweep", InlineBackendConfig().to_dict()) == cid
                for spec in specs:
                    rows.add_jobs(cid, [spec])
                for spec in specs:
                    assert rows.claim(cid, spec_hash(spec))
                for text in lines:
                    entry = json.loads(text)
                    rows.record_journal(cid, entry)
                    if entry["record"] == "job":
                        key = entry["spec_hash"]
                        rows.mark_done(cid, key, runner.cache.entry_path(key), entry["wall_s"])
                assert store_rows(rows) == store_rows(batched)
        assert sorted(path.read_bytes() for path in cache.rglob("*.json")) == entries


class TestBackendConfigs:
    def test_round_trip_through_wire_form(self):
        for config in (
            InlineBackendConfig(),
            InlineBackendConfig(timeout_s=30.0, retries=2),
            PoolBackendConfig(),
            PoolBackendConfig(jobs=7, timeout_s=5.0, retries=3),
        ):
            wire = json.loads(json.dumps(config.to_dict()))
            assert backend_config_from_dict(wire) == config

    def test_round_trip_through_store(self, tmp_path):
        config = PoolBackendConfig(jobs=3, timeout_s=60.0)
        with CampaignStore(tmp_path / "c.db") as store:
            store.ensure_campaign("sweep", config.to_dict())
            stored = store.campaign("sweep").backend
            assert backend_config_from_dict(stored) == config

    def test_negative_retries_are_refused_at_construction(self):
        for config in (InlineBackendConfig, PoolBackendConfig):
            with pytest.raises(ValueError, match="retries must be >= 0"):
                config(retries=-1)
        with pytest.raises(ValueError, match="retries must be >= 0"):
            backend_config_from_dict({"kind": "inline", "retries": -1})

    def test_build_rejects_unknown_configs(self):
        # A backend config is a stored value, not a construction spec.
        with pytest.raises(TypeError):
            repro.build(PoolBackendConfig())
        with pytest.raises(ValueError):
            backend_config_from_dict({"kind": "warp-cluster"})


class TestCampaignRunner:
    def test_requires_cache_dir(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            with pytest.raises(ValueError):
                CampaignRunner(store, "sweep")

    def test_submit_drain_fetch(self, tmp_path):
        specs = bulk_specs(3)
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(store, "sweep", cache_dir=tmp_path / "cache")
            assert runner.submit(specs) == 3
            assert runner.submit(specs) == 0  # idempotent
            counts = runner.drain()
            assert counts["done"] == 3 and counts["failed"] == 0
            results = runner.fetch(specs)
            assert [r.size for r in results] == [s.size for s in specs]
            assert all(isinstance(r, BulkDownloadResult) for r in results)

    def test_fetch_before_drain_raises(self, tmp_path):
        specs = bulk_specs(1)
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(store, "sweep", cache_dir=tmp_path / "cache")
            runner.submit(specs)
            with pytest.raises(CampaignError):
                runner.fetch(specs)

    def test_interrupted_drain_resumes_from_sqlite(self, tmp_path):
        db, cache = tmp_path / "c.db", tmp_path / "cache"
        specs = bulk_specs(4)
        with CampaignStore(db) as store:
            runner = CampaignRunner(store, "sweep", cache_dir=cache)
            runner.submit(specs)
            counts = runner.drain(limit=2)
            assert counts["done"] == 2 and counts["pending"] == 2
            # Simulate the crash: one job claimed but never finished.
            store.claim(runner.campaign_id, spec_hash(specs[2]))
            assert runner.status()["running"] == 1
        # A fresh process reopens the same store and just drains: the
        # orphan is reset, the rest run, the finished two stay done.
        with CampaignStore(db) as store:
            runner = CampaignRunner(store, "sweep", cache_dir=cache)
            counts = runner.drain()
            assert counts == {"pending": 0, "running": 0, "done": 4, "failed": 0}
            assert len(runner.fetch(specs)) == 4

    def test_resumed_jobs_hit_the_cache(self, tmp_path):
        """The acceptance criterion: a resume re-drains as cache hits."""
        cache = tmp_path / "cache"
        specs = bulk_specs(3)
        with CampaignStore(tmp_path / "first.db") as store:
            CampaignRunner(store, "sweep", cache_dir=cache).run(specs)
        # Same specs, same cache, fresh campaign state: every job must
        # journal as "cached" -- nothing re-simulates.
        with CampaignStore(tmp_path / "second.db") as store:
            runner = CampaignRunner(
                store, "sweep", cache_dir=cache,
                journal=tmp_path / "second.journal.jsonl",
            )
            runner.submit(specs)
            counts = runner.drain()
            assert counts["done"] == 3
            jobs = store.journal_records(runner.campaign_id, record="job")
            assert [r["status"] for r in jobs] == ["cached"] * 3

    def test_cli_redrain_against_a_fresh_store_is_all_cache_hits(self, tmp_path, capsys):
        """The CI ``campaign`` job's journal assertion, runnable locally."""
        from repro.cli import main
        from repro.obs.journal import read_journal

        def submit(db):
            return main([
                "campaign", "submit", "ci-grid", "--db", str(tmp_path / db),
                "--cache-dir", str(tmp_path / "cache"),
                "--sweep", "grid", "--scheduler", "ecf", "--video", "10",
                "--wifi-grid", "0.7", "8.6", "--lte-grid", "0.7", "8.6",
            ])

        assert submit("first.db") == 0
        assert submit("resume.db") == 0
        assert "done=4 failed=0 pending=0 running=0" in capsys.readouterr().out
        jobs = [
            record
            for record in read_journal(tmp_path / "resume.journal.jsonl")
            if record["record"] == "job"
        ]
        assert [job["status"] for job in jobs] == ["cached"] * 4

    def test_a_drain_that_cannot_build_its_executor_claims_nothing(self, tmp_path, capsys):
        """A bad knob used to surface *after* the claims were committed:
        a traceback, and ``running=1`` until some later drain reset it."""
        from repro.cli import main

        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(
                store, "sweep", backend=PoolBackendConfig(jobs=0),
                cache_dir=tmp_path / "cache",
            )
            runner.submit(bulk_specs(1))
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                runner.drain()
            assert runner.status() == {"pending": 1, "running": 0, "done": 0, "failed": 0}
            (job,) = store.jobs(runner.campaign_id)
            assert job.attempts == 0
        # The CLI's way in: a negative --retries is a usage error, before
        # any store exists.
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "submit", "t", "--db", str(tmp_path / "t.db"),
                  "--cache-dir", str(tmp_path / "cache"), "--retries", "-1"])
        assert exit_info.value.code == 2
        assert "--retries: must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "t.db").exists()

    def test_fetch_refuses_a_half_written_or_foreign_cache_entry(self, tmp_path):
        (spec,) = bulk_specs(1)
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(store, "sweep", cache_dir=tmp_path / "cache")
            runner.run([spec])
            cache = ResultCache(tmp_path / "cache")
            entry = cache.get(spec_hash(spec))
            half_written = {"schema_version": entry["schema_version"]}
            for broken in (half_written, {**entry, "kind": "streaming"}):
                cache.put(spec_hash(spec), broken)
                with pytest.raises(CampaignError):
                    runner.fetch([spec])

    def test_a_garbled_entry_is_refused_then_re_simulated(self, tmp_path):
        """A cached result with one flipped digit still parses: ``fetch``
        must refuse it and a re-drain must simulate the job again."""
        (spec,) = bulk_specs(1)
        cache = tmp_path / "cache"
        with CampaignStore(tmp_path / "first.db") as store:
            runner = CampaignRunner(store, "sweep", cache_dir=cache)
            (result,) = runner.run([spec])
            flip_a_digit(ResultCache(cache).path_for(spec_hash(spec)))
            with pytest.raises(CampaignError):
                runner.fetch([spec])
        with CampaignStore(tmp_path / "second.db") as store:
            runner = CampaignRunner(
                store, "sweep", cache_dir=cache, journal=tmp_path / "second.jsonl"
            )
            runner.submit([spec])
            runner.drain()
            jobs = store.journal_records(runner.campaign_id, record="job")
            assert [r["status"] for r in jobs] == ["executed"]
            (healed,) = runner.fetch([spec])
            assert healed.completion_time == result.completion_time

    @staticmethod
    def drain_twice(tmp_path, spec, cache):
        """Two campaigns over ``spec`` on one cache: the job statuses their
        drains journaled, and what the last one fetched."""
        statuses = []
        for db in ("first.db", "second.db"):
            with CampaignStore(tmp_path / db) as store:
                runner = CampaignRunner(
                    store, "sweep", cache_dir=cache, journal=tmp_path / f"{db}.jsonl"
                )
                runner.submit([spec])
                runner.drain()
                jobs = store.journal_records(runner.campaign_id, record="job")
                statuses += [r["status"] for r in jobs]
                (fetched,) = runner.fetch([spec])
        return statuses, fetched

    def test_an_entry_in_the_header_less_layout_re_simulates_once(self, tmp_path):
        """Entries written by older trees carry no digest header: the next
        drain simulates the job again and rewrites the entry, the drain
        after it is a cache hit."""
        (spec,) = bulk_specs(1)
        cache = tmp_path / "cache"
        ExperimentExecutor(cache_dir=cache).run([spec])
        entry = ResultCache(cache).path_for(spec_hash(spec))
        entry.write_text(canonical_json(ResultCache(cache).get(spec_hash(spec))))
        statuses, _ = self.drain_twice(tmp_path, spec, cache)
        assert statuses == ["executed", "cached"]

    def test_an_entry_in_the_previous_layout_re_simulates_once(self, tmp_path):
        """An entry written before float lists were packed (digest under
        ``sha256``, decimal floats) is a miss: the next drain simulates
        the job again and rewrites the entry packed, the drain after it
        is a cache hit, and the result is the one first cached."""
        spec = StreamingSpec(
            scheduler="ecf", wifi_mbps=0.3, lte_mbps=8.6, video_duration=10.0, seed=1
        )
        cache, key = tmp_path / "cache", spec_hash(spec)
        (result,) = ExperimentExecutor(cache_dir=cache).run([spec])
        entry = ResultCache(cache).path_for(key)
        entry.write_bytes(previous_layout_entry(ResultCache(cache).get(key)))
        statuses, fetched = self.drain_twice(tmp_path, spec, cache)
        assert statuses == ["executed", "cached"]
        header = json.loads(entry.read_text().partition("\n")[0])
        assert ["result", "ooo_delays"] in header["packed"]
        assert canonical_json(fetched.to_dict()) == canonical_json(result.to_dict())

    def test_a_refused_entry_is_counted(self, tmp_path):
        """A scan miss whose entry file is there was refused: the
        ``batch_end`` record counts it beside the re-simulation."""
        (spec,) = bulk_specs(1)
        cache = tmp_path / "cache"
        ExperimentExecutor(cache_dir=cache).run([spec])
        flip_a_digit(ResultCache(cache).path_for(spec_hash(spec)))
        ends = []
        for db in ("garbled.db", "healed.db"):
            with CampaignStore(tmp_path / db) as store:
                runner = CampaignRunner(
                    store, "sweep", cache_dir=cache, journal=tmp_path / f"{db}.jsonl"
                )
                runner.submit([spec])
                assert runner.drain()["done"] == 1
                (end,) = store.journal_records(runner.campaign_id, record="batch_end")
                ends.append({name: end[name] for name in ("refused", "executed", "cached")})
        assert ends == [
            {"refused": 1, "executed": 1, "cached": 0},
            {"refused": 0, "executed": 0, "cached": 1},
        ]

    @staticmethod
    def _rewrite_row(store, runner, key, text):
        """Replace the ``spec`` text of the row named ``key``, keeping the
        key: a stray edit, or a tool that wrote the row by hand."""
        store._conn.execute(
            "UPDATE jobs SET spec = ? WHERE campaign_id = ? AND spec_hash = ?",
            (text, runner.campaign_id, key),
        )
        store._conn.commit()

    @staticmethod
    def _wire_text(spec):
        return canonical_json({"kind": spec.kind, "spec": spec.to_dict()})

    def test_a_row_that_does_not_hash_to_its_key_fails_alone(self, tmp_path):
        """The drain runs on the row's key: a spec text that no longer
        hashes to it fails its job (nothing simulated, nothing cached),
        the other job finishes, and the campaign is not wedged."""
        kept, rewritten = bulk_specs(2, size=16 * 1024)
        stranger = dataclasses.replace(rewritten, size=32 * 1024)
        cache = tmp_path / "cache"
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(store, "sweep", cache_dir=cache, max_attempts=2)
            runner.submit([kept, rewritten])
            key = spec_hash(rewritten)
            self._rewrite_row(store, runner, key, self._wire_text(stranger))
            counts = runner.drain()
            assert counts == {"pending": 0, "running": 0, "done": 1, "failed": 1}
            assert store.job(runner.campaign_id, spec_hash(kept)).status == "done"
            (failure,) = runner.failures()
            assert failure.spec_hash == key
            assert f"hashes to {spec_hash(stranger)[:12]}" in failure.error_message
            for name in (key, spec_hash(stranger)):
                assert not ResultCache(cache).path_for(name).exists()
            assert runner.requeue() == 1
            assert runner.drain()["failed"] == 1
            assert runner.requeue() == 0  # both attempts burned
            assert store.job(runner.campaign_id, key).attempts == 2
            assert len(runner.fetch([kept])) == 1

    def test_a_row_whose_spec_does_not_parse_fails_alone(self, tmp_path):
        """Row text that is not JSON at all: its job fails alone, reads
        back (``failures()``, ``store.job``) with no spec, and ``requeue``
        (which parses no spec) still moves it."""
        kept, garbled = bulk_specs(2, size=16 * 1024)
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(
                store, "sweep", cache_dir=tmp_path / "cache", max_attempts=2,
                journal=tmp_path / "journal.jsonl",
            )
            runner.submit([kept, garbled])
            self._rewrite_row(store, runner, spec_hash(garbled), '{"kind": "bulk"')
            counts = runner.drain()
            assert counts == {"pending": 0, "running": 0, "done": 1, "failed": 1}
            (failed,) = [
                r for r in store.journal_records(runner.campaign_id, record="job")
                if r["status"] == "failed"
            ]
            assert failed["spec_hash"] == spec_hash(garbled)
            assert "no readable spec" in failed["error"]["message"]
            (failure,) = runner.failures()
            assert (failure.spec_hash, failure.kind) == (spec_hash(garbled), garbled.kind)
            assert "no readable spec" in failure.error_message
            assert store.job(runner.campaign_id, spec_hash(garbled)).spec is None
            assert runner.requeue() == 1
            assert runner.drain()["failed"] == 1
            assert runner.requeue() == 0

    def test_a_row_that_does_not_hash_to_its_key_is_served_by_its_key(self, tmp_path):
        """The key names the submitted spec: when its cache entry is there,
        the job is a hit whatever its row's text says."""
        (spec,) = bulk_specs(1)
        cache = tmp_path / "cache"
        (result,) = ExperimentExecutor(cache_dir=cache).run([spec])
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(
                store, "sweep", cache_dir=cache, journal=tmp_path / "journal.jsonl"
            )
            runner.submit([spec])
            self._rewrite_row(
                store, runner, spec_hash(spec),
                self._wire_text(dataclasses.replace(spec, seed=99)),
            )
            assert runner.drain()["done"] == 1
            jobs = store.journal_records(runner.campaign_id, record="job")
            assert [r["status"] for r in jobs] == ["cached"]
            assert runner.fetch([spec]) == [result]

    def test_run_and_drain_write_the_same_bytes(self, tmp_path):
        """``ExperimentExecutor.run`` ships the wire it built from the
        spec, a drain ships the wire its store row holds: the entries
        they write, and their journal ``job`` records, are the same."""
        from repro.obs.journal import read_journal
        from repro.workloads.web import WebBrowsingSpec

        specs = [
            *bulk_specs(1, size=16 * 1024),
            StreamingSpec(scheduler="ecf", video_duration=10.0, seed=1),
            WebBrowsingSpec(
                scheduler="minrtt",
                path_configs=(wifi_config(1.0), lte_config(8.6)),
                seed=2,
                object_sizes=(10_000, 250_000),
            ),
        ]
        ExperimentExecutor(
            cache_dir=tmp_path / "run", journal=tmp_path / "run.jsonl"
        ).run(specs)
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(
                store, "sweep", cache_dir=tmp_path / "drain",
                journal=tmp_path / "drain.jsonl",
            )
            runner.submit(specs)
            assert runner.drain()["done"] == len(specs)
        for spec in specs:
            entries = [
                ResultCache(tmp_path / side).path_for(spec_hash(spec)).read_bytes()
                for side in ("run", "drain")
            ]
            assert entries[0] == entries[1], spec.kind

        def jobs(side):
            return [
                {k: v for k, v in record.items() if k not in ("wall", "wall_s")}
                for record in read_journal(tmp_path / f"{side}.jsonl")
                if record["record"] == "job"
            ]

        assert jobs("run") == jobs("drain")
        assert [job["status"] for job in jobs("run")] == ["executed"] * len(specs)

    def test_failed_job_requeues_then_succeeds(self, tmp_path):
        spec = FlakySpec(marker=str(tmp_path / "marker"), succeed_after=2)
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(store, "sweep", cache_dir=tmp_path / "cache")
            runner.submit([spec])
            counts = runner.drain()
            assert counts["failed"] == 1
            (failure,) = runner.failures()
            assert failure.error_type == "RuntimeError"
            assert "attempt 1" in failure.error_message
            assert runner.requeue() == 1
            counts = runner.drain()
            assert counts == {"pending": 0, "running": 0, "done": 1, "failed": 0}
            (result,) = runner.fetch([spec])
            assert result.attempts == 2

    def test_requeue_gives_up_at_the_attempt_cap(self, tmp_path):
        spec = FlakySpec(marker=str(tmp_path / "marker"), succeed_after=99)
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(
                store, "sweep", cache_dir=tmp_path / "cache", max_attempts=2
            )
            runner.submit([spec])
            runner.drain()
            assert runner.requeue() == 1
            runner.drain()
            assert runner.status()["failed"] == 1
            assert runner.requeue() == 0  # both attempts burned
            job = store.job(runner.campaign_id, spec_hash(spec))
            assert job.attempts == 2

    def test_reopening_resumes_the_stored_backend(self, tmp_path):
        db = tmp_path / "c.db"
        with CampaignStore(db) as store:
            CampaignRunner(
                store, "sweep",
                backend=PoolBackendConfig(jobs=2),
                cache_dir=tmp_path / "cache",
            )
        with CampaignStore(db) as store:
            runner = CampaignRunner(store, "sweep", cache_dir=tmp_path / "cache")
            assert runner.backend_config == PoolBackendConfig(jobs=2)

    def test_runner_is_an_executor_drop_in(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(store, "fig18", cache_dir=tmp_path / "cache")
            matrix = wget_matrix(
                ("minrtt",), (64 * 1024,), (1.0,), (2.0, 8.0), executor=runner,
            )
            assert set(matrix) == {
                (64 * 1024, 1.0, 2.0, "minrtt"),
                (64 * 1024, 1.0, 8.0, "minrtt"),
            }
            assert runner.status()["done"] == 2

    def test_pool_backend_drains_a_campaign(self, tmp_path):
        specs = bulk_specs(3)
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(
                store, "sweep",
                backend=PoolBackendConfig(jobs=2),
                cache_dir=tmp_path / "cache",
            )
            counts = runner.run(specs) and runner.status()
            assert counts["done"] == 3


class Boom(Exception):
    """Raised by a hook to kill a drain at a chosen job."""


class TestOneCommitPerJob:
    """A finished job's journal index row and its transition are one
    commit -- the commit of its look: a drain that dies anywhere leaves
    no half-recorded job, and a look dies whole or not at all."""

    K = 2  # the hook raises on the third job to finish

    @pytest.mark.parametrize("hook", ["journal_observer", "on_outcome"])
    def test_a_drain_killed_at_job_k_resumes_without_loss(self, tmp_path, hook):
        from repro.obs.journal import read_journal

        db, cache = tmp_path / "c.db", tmp_path / "cache"
        specs = bulk_specs(5)
        keys = [spec_hash(spec) for spec in specs]
        finished = []

        def die_at_k(event):
            # ``journal_observer`` sees every record, ``on_outcome`` only jobs.
            if isinstance(event, dict) and event["record"] != "job":
                return
            finished.append(event)
            if len(finished) == self.K + 1:
                raise Boom

        with CampaignStore(db) as store:
            runner = CampaignRunner(
                store, "sweep", cache_dir=cache,
                journal=tmp_path / "first.jsonl", **{hook: die_at_k},
            )
            runner.submit(specs)
            with pytest.raises(Boom):
                runner.drain()

        first_lines = [
            r["spec_hash"] for r in read_journal(tmp_path / "first.jsonl")
            if r["record"] == "job"
        ]
        assert first_lines == keys[: self.K + 1]  # one line per job, k included
        with CampaignStore(db) as store:
            cid = store.campaign("sweep").id
            status = {job.spec_hash: job.status for job in store.jobs(cid)}
            indexed = [r["spec_hash"] for r in store.journal_records(cid, record="job")]
            assert len(indexed) == len(set(indexed))
            # Neither half without the other.
            assert set(indexed) == {key for key in keys if status[key] == "done"}
            assert all(status[key] == "done" for key in keys[: self.K])
            # ``journal_observer`` runs before job k's commit, ``on_outcome``
            # after it: k is still running, or done with its row.
            killed = status[keys[self.K]]
            assert killed == ("running" if hook == "journal_observer" else "done")
            assert all(status[key] == "running" for key in keys[self.K + 1:])
            left = [key for key in keys if status[key] != "done"]

            runner = CampaignRunner(
                store, "sweep", cache_dir=cache, journal=tmp_path / "second.jsonl",
            )
            counts = runner.drain()
            assert counts == {"pending": 0, "running": 0, "done": 5, "failed": 0}
            second = {
                r["spec_hash"]: r["status"]
                for r in read_journal(tmp_path / "second.jsonl")
                if r["record"] == "job"
            }
            assert sorted(second) == sorted(left)
            # Job k's result was in the cache before its journal line was
            # written, so the resume does not run it a second time.
            for key in left:
                assert second[key] == ("cached" if key == keys[self.K] else "executed")
            indexed = [r["spec_hash"] for r in store.journal_records(cid, record="job")]
            assert sorted(indexed) == sorted(keys)
            for key in keys:
                assert store.job(cid, key).attempts == (2 if key in left else 1)
            assert len(runner.fetch(specs)) == 5


    def _kill_inside_a_look_then_resume(
        self, tmp_path, monkeypatch, specs, backend, where, at, lines, done
    ):
        """Kill a drain at its ``at``-th finished job (0-based) -- in the
        journal observer (before the look commits), inside the look's
        transaction (after its batched ``done`` write, before its
        commit), or in ``on_outcome`` (after it) -- and resume it.
        ``lines`` jobs must have reached the first JSONL and the first
        ``done`` of them the store; the resume must re-simulate nothing
        that reached the cache and index every job exactly once."""
        from repro.obs.journal import read_journal

        db, cache = tmp_path / "c.db", tmp_path / "cache"
        keys = [spec_hash(spec) for spec in specs]
        seen = []

        def die(event=None):
            if isinstance(event, dict) and event["record"] != "job":
                return
            seen.append(event)
            if len(seen) == at + 1:
                raise Boom

        with CampaignStore(db) as store:
            hooks = {where: die} if where != "transaction" else {}
            runner = CampaignRunner(
                store, "sweep", backend=backend, cache_dir=cache,
                journal=tmp_path / "first.jsonl", **hooks,
            )
            if where == "transaction":
                mark_done_many = store.mark_done_many

                def dying_mark_done_many(campaign_id, rows):
                    # The look's one ``done`` write lands, then the kill.
                    mark_done_many(campaign_id, rows)
                    for _ in rows:
                        die()

                monkeypatch.setattr(store, "mark_done_many", dying_mark_done_many)
            runner.submit(specs)
            with pytest.raises(Boom):
                runner.drain()

        first_lines = [
            r["spec_hash"] for r in read_journal(tmp_path / "first.jsonl")
            if r["record"] == "job"
        ]
        assert len(first_lines) == lines
        with CampaignStore(db) as store:
            cid = store.campaign("sweep").id
            status = {job.spec_hash: job.status for job in store.jobs(cid)}
            indexed = [r["spec_hash"] for r in store.journal_records(cid, record="job")]
            # Whole looks, and what the dying look recorded before the raise
            # when the raise came before its commit: nothing else is done,
            # and nothing done lacks its row.
            assert indexed == first_lines[:done]
            assert {key for key in keys if status[key] == "done"} == set(indexed)
            assert {status[key] for key in keys if key not in indexed} == {"running"}
            left = [key for key in keys if status[key] != "done"]
            in_cache = {key for key in left if ResultCache(cache).get(key) is not None}
            assert in_cache >= set(first_lines[done:])

            runner = CampaignRunner(
                store, "sweep", backend=backend, cache_dir=cache,
                journal=tmp_path / "second.jsonl",
            )
            counts = runner.drain()
            assert counts == {"pending": 0, "running": 0, "done": len(keys), "failed": 0}
            second = {
                r["spec_hash"]: r["status"]
                for r in read_journal(tmp_path / "second.jsonl")
                if r["record"] == "job"
            }
            assert second == {
                key: "cached" if key in in_cache else "executed" for key in left
            }
            indexed = [r["spec_hash"] for r in store.journal_records(cid, record="job")]
            assert sorted(indexed) == sorted(keys)
            for key in keys:
                assert store.job(cid, key).attempts == (2 if key in left else 1)
            assert len(runner.fetch(specs)) == len(keys)

    @pytest.mark.parametrize(
        "where, lines, done",
        [
            # Outcomes 0 and 1 were recorded before job 2's line raised: the
            # look's way out delivers them, job 2 has a line and no row.
            ("journal_observer", 3, 2),
            # All four were journaled, then the look's one commit died.
            ("transaction", 4, 0),
            # The look had committed whole before ``on_outcome`` heard of it.
            ("on_outcome", 4, 4),
        ],
    )
    def test_a_pool_look_killed_at_outcome_k_dies_whole_or_not_at_all(
        self, tmp_path, monkeypatch, whole_window_looks, where, lines, done
    ):
        # Six jobs on two workers are a look of four, then a look of two.
        self._kill_inside_a_look_then_resume(
            tmp_path, monkeypatch, bulk_specs(6, size=16 * 1024),
            PoolBackendConfig(jobs=2), where, at=self.K, lines=lines, done=done,
        )

    @pytest.mark.parametrize(
        "where, lines, done",
        [
            ("journal_observer", 5, 4),  # slice one, and job 3 of slice two
            ("transaction", 6, 3),  # slice two rolled back whole
            ("on_outcome", 6, 6),  # slice two committed whole
        ],
    )
    def test_a_cached_scan_killed_inside_a_slice_resumes_as_cached(
        self, tmp_path, monkeypatch, where, lines, done
    ):
        from repro.experiments import exec as exec_module
        from repro.experiments.exec import ExperimentExecutor

        specs = bulk_specs(8, size=16 * 1024)
        ExperimentExecutor(cache_dir=tmp_path / "cache").run(specs)
        # Eight cached jobs in slices of three; the kill lands on the
        # second job of the second slice.
        monkeypatch.setattr(exec_module, "LOOK_SLICE", 3)
        self._kill_inside_a_look_then_resume(
            tmp_path, monkeypatch, specs, InlineBackendConfig(), where,
            at=4, lines=lines, done=done,
        )


class TestConcurrentDrain:
    """Two runners on one campaign: atomic claims partition the work."""

    @staticmethod
    def _flaky_specs(tmp_path, n):
        # succeed_after=1: each job succeeds on its first attempt, so any
        # attempts > 1 below can only mean a double execution.
        return [
            FlakySpec(marker=str(tmp_path / f"marker-{i}.txt"), succeed_after=1)
            for i in range(n)
        ]

    def test_claim_race_has_one_winner(self, tmp_path):
        db = tmp_path / "c.db"
        with CampaignStore(db) as a, CampaignStore(db) as b:
            cid = a.ensure_campaign("sweep", {"kind": "inline"})
            (spec,) = self._flaky_specs(tmp_path, 1)
            a.add_jobs(cid, [spec])
            key = spec_hash(spec)
            wins = [a.claim(cid, key), b.claim(cid, key)]
            assert sorted(wins) == [False, True]
            assert a.job(cid, key).attempts == 1

    def test_two_runners_split_the_jobs(self, tmp_path):
        import threading

        db = tmp_path / "c.db"
        specs = self._flaky_specs(tmp_path, 8)
        with CampaignStore(db) as store:
            runner = CampaignRunner(store, "sweep", cache_dir=tmp_path / "cache")
            runner.submit(specs)

        errors = []

        def drain_all(worker: str) -> None:
            # Each worker opens its own connection (sqlite3 connections
            # are thread-bound) and never resets orphans: a live peer's
            # running jobs are not up for grabs.
            try:
                with CampaignStore(db) as store:
                    worker_runner = CampaignRunner(
                        store, "sweep", cache_dir=tmp_path / "cache"
                    )
                    while True:
                        counts = worker_runner.drain(
                            limit=1, reset_orphans=False
                        )
                        if counts["pending"] == 0:
                            break
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((worker, exc))

        threads = [
            threading.Thread(target=drain_all, args=(name,))
            for name in ("alpha", "beta")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []

        with CampaignStore(db) as store:
            runner = CampaignRunner(store, "sweep", cache_dir=tmp_path / "cache")
            counts = runner.status()
            assert counts["done"] == 8
            assert counts["pending"] == counts["running"] == counts["failed"] == 0
            # The invariant the atomic claim buys: no job ran twice.
            for spec in specs:
                job = store.job(runner.campaign_id, spec_hash(spec))
                assert job.attempts == 1

    def test_two_live_drainers_over_a_big_warm_campaign(self, tmp_path):
        """2,000 cached jobs, two drainers claiming 600 at a time on one
        on-disk store: nobody sees ``database is locked``, the jobs
        partition, and no transaction after a claim batch writes more
        than one slice of a cache scan."""
        import threading

        from repro.experiments.exec import LOOK_SLICE
        from repro.experiments.spec import SCHEMA_VERSION

        db, cache_dir = tmp_path / "c.db", tmp_path / "cache"
        specs = self._flaky_specs(tmp_path, 2000)
        cache = ResultCache(cache_dir)
        for spec in specs:  # results nobody simulated: every job is a hit
            cache.put(spec_hash(spec), {
                "schema_version": SCHEMA_VERSION, "kind": spec.kind,
                "spec": spec.to_dict(), "result": {"attempts": 1},
            })
        with CampaignStore(db) as store:
            CampaignRunner(store, "sweep", cache_dir=cache_dir).submit(specs)

        errors, drained, statements = [], {}, {}

        def drain_all(worker: str) -> None:
            mine = drained[worker] = []
            sql = statements[worker] = []
            try:
                with CampaignStore(db) as store:
                    store._conn.set_trace_callback(sql.append)
                    runner = CampaignRunner(
                        store, "sweep", cache_dir=cache_dir,
                        journal=tmp_path / f"{worker}.jsonl",
                        on_outcome=lambda outcome: mine.append(outcome.spec_hash),
                    )
                    while runner.drain(limit=600, reset_orphans=False)["pending"]:
                        pass
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((worker, exc))

        threads = [
            threading.Thread(target=drain_all, args=(name,)) for name in ("alpha", "beta")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

        # A partition: every job drained by exactly one of the two.
        assert sorted(drained["alpha"] + drained["beta"]) == sorted(
            spec_hash(spec) for spec in specs
        )
        assert drained["alpha"] and drained["beta"]
        # Rows written per transaction.  A claim batch takes its (at most)
        # 600 jobs in one commit by design -- it has run nothing yet; every
        # other transaction is a look, bounded by the slice.
        assert LOOK_SLICE < 600
        for sql in statements.values():
            writes = {"claim": 0, "done": 0, "journal": 0}
            for statement in sql:
                if statement == "COMMIT":
                    assert writes["done"] == writes["journal"] <= LOOK_SLICE or (
                        writes["done"] == 0 and writes["journal"] == 1  # batch_start/_end
                    )
                    assert not (writes["claim"] and writes["done"])
                    writes = dict.fromkeys(writes, 0)
                elif statement.startswith("UPDATE jobs"):
                    writes["claim" if "attempts + 1" in statement else "done"] += 1
                elif statement.startswith("INSERT INTO journal"):
                    writes["journal"] += 1
        with CampaignStore(db) as store:
            cid = store.campaign("sweep").id
            assert store.counts(cid) == {"pending": 0, "running": 0, "done": 2000, "failed": 0}
            assert {job.attempts for job in store.jobs(cid)} == {1}
