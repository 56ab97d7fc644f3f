"""SQLite-backed campaign store: sweeps as durable, resumable state.

A campaign is a named batch of experiment jobs.  Each job is one
:mod:`repro.experiments.spec` spec, keyed by its content address
(:func:`~repro.experiments.spec.spec_hash`), moving through a small state
machine::

    pending --> running --> done
       |           |
       |           +-----> failed --> pending   (requeue)
       +--> done   (cache hit, no claim needed)

All state lives in one SQLite file, so a campaign killed at job 7312 of
10000 resumes exactly where it stopped: ``reset_running`` returns
orphaned ``running`` jobs to ``pending``, and the drain picks them up
again (re-executed jobs that already finished resolve from the result
cache, not by re-simulating).  This is the fg-inet ``mkjobs`` /
``runjobs`` / ``rerunTasks`` shell loop absorbed as library code.

The store also indexes the run journal (every
:class:`~repro.obs.journal.RunJournal` record of a campaign's drains)
and the postmortem bundles of failed jobs, so triage starts from SQL
rather than from grepping JSONL files.

Invariants enforced here rather than by callers:

* job identity is ``(campaign, spec_hash)`` -- re-submitting a spec that
  is already part of the campaign is a no-op (idempotent submit);
* every status change must be a legal transition (``_TRANSITIONS``);
* claims are **process-atomic**: :meth:`CampaignStore.claim` is a single
  conditional ``UPDATE ... WHERE status = 'pending'``, so two runners
  draining the same campaign race safely -- exactly one wins each job,
  the loser just moves on;
* claiming a job for execution bumps its attempt counter, and
  ``requeue_failed`` refuses jobs that already burned ``max_attempts``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.spec import canonical_json, spec_to_dict, wire_hash

PathLike = Union[str, "os.PathLike[str]"]

#: Job states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Legal status transitions.  ``pending -> done`` is the cache-hit
#: short-circuit (the job never needed a worker); ``running -> pending``
#: is crash recovery; ``failed -> pending`` is a requeue.
_TRANSITIONS: Dict[str, FrozenSet[str]] = {
    PENDING: frozenset({RUNNING, DONE}),
    RUNNING: frozenset({DONE, FAILED, PENDING}),
    FAILED: frozenset({PENDING}),
    DONE: frozenset(),
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE,
    backend TEXT NOT NULL,
    cache_dir TEXT,
    created_wall REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    id INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    spec_hash TEXT NOT NULL,
    kind TEXT NOT NULL,
    spec TEXT NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    wall_s REAL,
    result_path TEXT,
    error_type TEXT,
    error_message TEXT,
    postmortem TEXT,
    updated_wall REAL NOT NULL,
    UNIQUE (campaign_id, spec_hash)
);
CREATE INDEX IF NOT EXISTS jobs_by_status ON jobs (campaign_id, status);
CREATE TABLE IF NOT EXISTS journal (
    id INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    record TEXT NOT NULL,
    entry TEXT NOT NULL
);
"""


class TransitionError(RuntimeError):
    """An illegal job status transition was attempted."""


@dataclass(frozen=True)
class CampaignRow:
    """One campaign, as stored."""

    id: int
    name: str
    backend: Dict[str, Any]
    cache_dir: Optional[str]
    created_wall: float


@dataclass(frozen=True)
class JobRow:
    """One job, as stored.  ``spec`` is the wire-format dict, or None when
    the row's text does not parse (its job fails alone; listing it must
    not raise)."""

    id: int
    campaign_id: int
    spec_hash: str
    kind: str
    spec: Optional[Dict[str, Any]]
    status: str
    attempts: int
    wall_s: Optional[float]
    result_path: Optional[str]
    error_type: Optional[str]
    error_message: Optional[str]
    postmortem: Optional[str]


def _row_to_job(row: sqlite3.Row) -> JobRow:
    try:
        spec = json.loads(row["spec"])
    except ValueError:
        spec = None
    return JobRow(
        id=row["id"],
        campaign_id=row["campaign_id"],
        spec_hash=row["spec_hash"],
        kind=row["kind"],
        spec=spec,
        status=row["status"],
        attempts=row["attempts"],
        wall_s=row["wall_s"],
        result_path=row["result_path"],
        error_type=row["error_type"],
        error_message=row["error_message"],
        postmortem=row["postmortem"],
    )


class CampaignStore:
    """Durable campaign/job state in one SQLite file.

    A commit covers one mutating call -- or, inside a
    :meth:`transaction` scope, everything the scope did: the runner
    commits once per claim batch and once per *look* of its executor
    (the journal index rows of the jobs the look found finished together
    with their ``done``/``failed`` transitions).  A killed process
    therefore loses at most the call or scope in flight -- a batch of
    claims that had run nothing yet, or the bookkeeping of one look
    whose results are already in the cache, which the next drain
    re-resolves as cache hits -- and SQLite's journal guarantees the
    file itself stays consistent.  Open the same path again to resume.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.row_factory = sqlite3.Row
        # Concurrent drainers hit brief write locks; wait them out
        # instead of surfacing sqlite3.OperationalError to callers.
        self._conn.execute("PRAGMA busy_timeout = 5000")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        #: True while a :meth:`transaction` scope is open: mutating calls
        #: then leave the commit to the scope.
        self._in_scope = False

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- commits ---------------------------------------------------------
    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Make everything the block does one commit.

        Inside the scope mutating calls do not commit; leaving it commits
        once.  If the block raises, nothing it did is kept.  The first
        write takes SQLite's write lock until the scope ends, so keep it
        to a bounded number of store calls (the runner's largest scope
        after the claim batch is one look, at most
        ``repro.experiments.exec.LOOK_SLICE`` jobs): never run a
        simulation inside one.
        """
        if self._in_scope:
            raise RuntimeError("CampaignStore.transaction() scopes do not nest")
        self._in_scope = True
        try:
            yield
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise
        finally:
            self._in_scope = False

    def _commit(self) -> None:
        if not self._in_scope:
            self._conn.commit()

    # -- campaigns -------------------------------------------------------
    def ensure_campaign(
        self,
        name: str,
        backend: Dict[str, Any],
        cache_dir: Optional[str] = None,
    ) -> int:
        """Create the campaign or return the existing one's id.

        Re-opening an existing campaign with a *different* backend config
        is allowed (you may resume a pool campaign inline); the stored
        backend keeps describing the original submission.
        """
        row = self._conn.execute(
            "SELECT id FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        if row is not None:
            return int(row["id"])
        cursor = self._conn.execute(
            "INSERT INTO campaigns (name, backend, cache_dir, created_wall)"
            " VALUES (?, ?, ?, ?)",
            # Bookkeeping timestamp, not simulation state.
            (name, canonical_json(backend), cache_dir, time.time()),
        )
        self._commit()
        return int(cursor.lastrowid)

    def campaign(self, name: str) -> Optional[CampaignRow]:
        row = self._conn.execute(
            "SELECT * FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            return None
        return CampaignRow(
            id=row["id"],
            name=row["name"],
            backend=json.loads(row["backend"]),
            cache_dir=row["cache_dir"],
            created_wall=row["created_wall"],
        )

    def campaigns(self) -> List[CampaignRow]:
        names = [
            row["name"]
            for row in self._conn.execute(
                "SELECT name FROM campaigns ORDER BY id"
            ).fetchall()
        ]
        found = [self.campaign(name) for name in names]
        return [row for row in found if row is not None]

    # -- jobs ------------------------------------------------------------
    def add_jobs(self, campaign_id: int, specs: Sequence[Any]) -> int:
        """Register specs as jobs; returns how many were actually new.

        Identity is the spec hash: a spec already present in the campaign
        (same content, whatever its construction) is skipped, so
        re-submitting a sweep after a crash or an extension is free.
        """
        added = 0
        for spec in specs:
            wire = spec_to_dict(spec)
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO jobs"
                " (campaign_id, spec_hash, kind, spec, status, updated_wall)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    wire_hash(wire),
                    wire["kind"],
                    canonical_json(wire),
                    PENDING,
                    time.time(),
                ),
            )
            added += cursor.rowcount
        self._commit()
        return added

    def jobs(self, campaign_id: int, status: Optional[str] = None) -> List[JobRow]:
        """Jobs of a campaign (optionally filtered), in insertion order."""
        if status is None:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE campaign_id = ? ORDER BY id",
                (campaign_id,),
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE campaign_id = ? AND status = ?"
                " ORDER BY id",
                (campaign_id, status),
            ).fetchall()
        return [_row_to_job(row) for row in rows]

    def job(self, campaign_id: int, key: str) -> Optional[JobRow]:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE campaign_id = ? AND spec_hash = ?",
            (campaign_id, key),
        ).fetchone()
        return None if row is None else _row_to_job(row)

    def specs(self, campaign_id: int, keys: Sequence[str]) -> Dict[str, Any]:
        """``spec hash -> wire`` for the campaign's jobs named in ``keys``,
        in one query (the keys travel as one JSON array, so their number
        is not bound by SQLite's parameter limit).  A row whose text does
        not parse is left out: its job has no spec to run.  The wire is
        returned as stored; whether it still hashes to its key is the
        caller's check."""
        found: Dict[str, Any] = {}
        for key, text in self._conn.execute(
            "SELECT spec_hash, spec FROM jobs WHERE campaign_id = ?"
            " AND spec_hash IN (SELECT value FROM json_each(?))",
            (campaign_id, json.dumps(list(keys))),
        ):
            try:
                found[key] = json.loads(text)
            except ValueError:
                pass
        return found

    def statuses(self, campaign_id: int) -> Dict[str, Tuple[str, str]]:
        """``spec hash -> (kind, status)`` for every job of a campaign, in
        insertion order: one query that parses no spec, for callers that
        only ask how far each job got."""
        return {
            row["spec_hash"]: (row["kind"], row["status"])
            for row in self._conn.execute(
                "SELECT spec_hash, kind, status FROM jobs"
                " WHERE campaign_id = ? ORDER BY id",
                (campaign_id,),
            )
        }

    def counts(self, campaign_id: int) -> Dict[str, int]:
        """Per-status job counts (statuses with zero jobs included)."""
        result = {status: 0 for status in _TRANSITIONS}
        for row in self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM jobs WHERE campaign_id = ?"
            " GROUP BY status",
            (campaign_id,),
        ).fetchall():
            result[row["status"]] = row["n"]
        return result

    # -- the state machine ----------------------------------------------
    def _transition(
        self,
        campaign_id: int,
        key: str,
        new_status: str,
        *,
        bump_attempts: bool = False,
        fields: Optional[Dict[str, Any]] = None,
    ) -> None:
        row = self._conn.execute(
            "SELECT status, attempts FROM jobs"
            " WHERE campaign_id = ? AND spec_hash = ?",
            (campaign_id, key),
        ).fetchone()
        if row is None:
            raise KeyError(f"no job {key!r} in campaign {campaign_id}")
        current = row["status"]
        if new_status not in _TRANSITIONS[current]:
            raise TransitionError(
                f"job {key[:12]} cannot go {current!r} -> {new_status!r}"
            )
        sets = ["status = ?", "updated_wall = ?"]
        values: List[Any] = [new_status, time.time()]
        if bump_attempts:
            sets.append("attempts = attempts + 1")
        for column, value in (fields or {}).items():
            sets.append(f"{column} = ?")
            values.append(value)
        values.extend([campaign_id, key])
        self._conn.execute(
            f"UPDATE jobs SET {', '.join(sets)}"
            " WHERE campaign_id = ? AND spec_hash = ?",
            values,
        )
        self._commit()

    def claim(self, campaign_id: int, key: str) -> bool:
        """Atomically take a pending job for execution.

        One conditional ``UPDATE`` guarded on ``status = 'pending'``:
        when several drainers race for the same job, SQLite serializes
        the writes and exactly one caller flips the row (and bumps its
        attempt count).  Returns ``True`` when this caller won the
        claim; ``False`` when the job exists but was no longer pending
        (another runner took it, or it already finished).  Raises
        :class:`KeyError` for a job that is not in the campaign at all.
        """
        cursor = self._conn.execute(
            "UPDATE jobs SET status = ?, attempts = attempts + 1,"
            " updated_wall = ?"
            " WHERE campaign_id = ? AND spec_hash = ? AND status = ?",
            # Bookkeeping timestamp, not simulation state.
            (RUNNING, time.time(), campaign_id, key, PENDING),
        )
        self._commit()
        if cursor.rowcount > 0:
            return True
        if self.job(campaign_id, key) is None:
            raise KeyError(f"no job {key!r} in campaign {campaign_id}")
        return False

    def mark_done(
        self,
        campaign_id: int,
        key: str,
        result_path: Optional[str] = None,
        wall_s: Optional[float] = None,
    ) -> None:
        self._transition(
            campaign_id,
            key,
            DONE,
            fields={
                "result_path": result_path,
                "wall_s": wall_s,
                "error_type": None,
                "error_message": None,
                "postmortem": None,
            },
        )

    def mark_failed(
        self,
        campaign_id: int,
        key: str,
        error_type: str,
        error_message: str,
        postmortem: Optional[str] = None,
        wall_s: Optional[float] = None,
    ) -> None:
        self._transition(
            campaign_id,
            key,
            FAILED,
            fields={
                "error_type": error_type,
                "error_message": error_message,
                "postmortem": postmortem,
                "wall_s": wall_s,
            },
        )

    def reset_running(self, campaign_id: int) -> int:
        """Crash recovery: return orphaned ``running`` jobs to ``pending``.

        Only call this when no other drainer is live: a ``running`` row
        then necessarily belongs to a dead process and is safe to take
        back.  Concurrent drainers skip this step
        (``drain(reset_orphans=False)``) so they cannot steal each
        other's in-flight jobs.  Returns how many were reset.
        """
        reset = 0
        for key, _ in self._attempts(campaign_id, RUNNING):
            self._transition(campaign_id, key, PENDING)
            reset += 1
        return reset

    def requeue_failed(self, campaign_id: int, max_attempts: int = 3) -> Tuple[int, int]:
        """Return failed jobs to ``pending``, respecting the attempt cap.

        Returns ``(requeued, exhausted)`` -- jobs whose attempt count
        already reached ``max_attempts`` stay failed so a deterministic
        crash cannot loop forever.
        """
        requeued = 0
        exhausted = 0
        for key, attempts in self._attempts(campaign_id, FAILED):
            if attempts >= max_attempts:
                exhausted += 1
                continue
            self._transition(campaign_id, key, PENDING)
            requeued += 1
        return requeued, exhausted

    def _attempts(self, campaign_id: int, status: str) -> List[Tuple[str, int]]:
        """``(spec hash, attempts)`` of the campaign's ``status`` jobs, in
        insertion order: what a bulk move needs of a row, without parsing
        its spec (a row whose text is garbled must not stop a requeue)."""
        return [
            (row["spec_hash"], row["attempts"])
            for row in self._conn.execute(
                "SELECT spec_hash, attempts FROM jobs"
                " WHERE campaign_id = ? AND status = ? ORDER BY id",
                (campaign_id, status),
            )
        ]

    # -- journal index ---------------------------------------------------
    def record_journal(self, campaign_id: int, entry: Dict[str, Any]) -> None:
        """Index one run-journal record against the campaign."""
        self._conn.execute(
            "INSERT INTO journal (campaign_id, record, entry) VALUES (?, ?, ?)",
            (
                campaign_id,
                str(entry.get("record", "unknown")),
                json.dumps(entry, sort_keys=True, default=str),
            ),
        )
        self._commit()

    def journal_records(
        self, campaign_id: int, record: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """The campaign's indexed journal records, in arrival order."""
        if record is None:
            rows = self._conn.execute(
                "SELECT entry FROM journal WHERE campaign_id = ? ORDER BY id",
                (campaign_id,),
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT entry FROM journal"
                " WHERE campaign_id = ? AND record = ? ORDER BY id",
                (campaign_id, record),
            ).fetchall()
        return [json.loads(row["entry"]) for row in rows]

    def journal_summary(self, campaign_id: int) -> Tuple[Dict[str, int], int]:
        """``(job records per status, retry records)`` of the indexed
        journal, aggregated in SQL: what a status document needs of it,
        without parsing a row in Python.  A ``job`` record that carries
        no ``status`` counts under ``"unknown"``.
        """
        by_status: Dict[str, int] = {}
        for row in self._conn.execute(
            "SELECT json_extract(entry, '$.status') AS status, COUNT(*) AS n"
            " FROM journal WHERE campaign_id = ? AND record = 'job' GROUP BY 1",
            (campaign_id,),
        ).fetchall():
            status = "unknown" if row["status"] is None else str(row["status"])
            by_status[status] = by_status.get(status, 0) + row["n"]
        (retries,) = self._conn.execute(
            "SELECT COUNT(*) FROM journal WHERE campaign_id = ? AND record = 'retry'",
            (campaign_id,),
        ).fetchone()
        return by_status, retries
