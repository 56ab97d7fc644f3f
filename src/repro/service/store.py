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
* every status change must be a legal transition (``_TRANSITIONS``):
  a batch of moves is one ``executemany`` of an ``UPDATE`` guarded on
  the legal source states, and a batch in which any move is illegal
  raises the :class:`TransitionError` (or :class:`KeyError`) its first
  illegal move would raise alone, having changed nothing;
* claims stay **process-atomic**, now as one guarded statement per
  batch: :meth:`CampaignStore.claim_many` is a single ``UPDATE ...
  RETURNING`` of the batch's rows still ``status = 'pending'``, so two
  runners draining the same campaign race safely -- exactly one wins
  each job, the loser just moves on;
* claiming a job for execution bumps its attempt counter, and
  ``requeue_failed`` refuses jobs that already burned ``max_attempts``.

A look of the runner is one statement per table: a claim batch, its
journal-index rows, its ``done`` moves.  The one-row methods
(:meth:`~CampaignStore.claim`, :meth:`~CampaignStore.mark_done`,
:meth:`~CampaignStore.record_journal`, ...) are the one-row case of the
same statements, so every write has one SQL path.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
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

from repro.experiments.spec import canonical_json, encode_spec

if TYPE_CHECKING:
    import sqlite3

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

#: A journal-index row's text for a record given as a dict: the line
#: :class:`~repro.obs.journal.RunJournal` writes for it.
_JOURNAL_LINE = json.JSONEncoder(sort_keys=True, default=str)

#: The columns each move writes beside ``status`` and ``updated_wall``.
_MOVE_COLUMNS: Dict[str, Tuple[str, ...]] = {
    DONE: ("result_path", "wall_s", "error_type", "error_message", "postmortem"),
    FAILED: ("error_type", "error_message", "postmortem", "wall_s"),
    PENDING: (),
}

#: The guarded ``UPDATE`` of each move: a row changes only from a state
#: that ``_TRANSITIONS`` lets reach the target.
_MOVE_SQL: Dict[str, str] = {
    target: "UPDATE jobs SET status = '{}', updated_wall = ?{} WHERE campaign_id = ?"
    " AND spec_hash = ? AND status IN ({})".format(
        target,
        "".join(f", {column} = ?" for column in columns),
        ", ".join(f"'{source}'" for source, targets in _TRANSITIONS.items() if target in targets),
    )
    for target, columns in _MOVE_COLUMNS.items()
}


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
    commits once per claim batch (one :meth:`claim_many`) and once per
    *look* of its executor (the journal index rows of the jobs the look
    found finished, one :meth:`record_journal_lines`, together with
    their ``done``/``failed`` transitions, one :meth:`mark_done_many`
    and, when a job failed, one :meth:`mark_failed_many`).  A killed process
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
        # Imported here: a process that runs simulations and opens no
        # store loads no SQLite (about 1 MB of peak RSS).
        import sqlite3

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
        Each spec is encoded once (:func:`~repro.experiments.spec.encode_spec`
        gives the stored text and the key), and the rows go in with one
        ``executemany``.
        """
        # Bookkeeping timestamp, not simulation state.
        now = time.time()
        rows = []
        for spec in specs:
            text, key = encode_spec(spec)
            rows.append((campaign_id, key, spec.kind, text, now))
        added = self._conn.executemany(
            "INSERT OR IGNORE INTO jobs"
            " (campaign_id, spec_hash, kind, spec, status, updated_wall)"
            f" VALUES (?, ?, ?, ?, '{PENDING}', ?)",
            rows,
        ).rowcount
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
            key: (kind, status)
            for key, kind, status in self._conn.execute(
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
    def claim_many(
        self, campaign_id: int, keys: Sequence[str], limit: Optional[int] = None
    ) -> List[str]:
        """Atomically take pending jobs for execution; returns the keys
        this caller won, in insertion order.

        One ``UPDATE ... RETURNING`` guarded on ``status = 'pending'``
        flips the ``limit`` (default: all) earliest-inserted of
        ``keys``'s jobs that are still pending, whatever order ``keys``
        is in, and bumps their attempt counts.  When several drainers
        race for the same jobs, SQLite serializes the writes and exactly
        one caller flips each row; a job another runner took, or that
        already finished, is skipped, and the next pending one fills its
        place under the ``limit``.  The keys travel as one JSON array, so
        their number is not bound by SQLite's parameter limit.
        """
        # ``+status`` keeps the planner off ``jobs_by_status``: the rows are
        # found by key through the unique index, not by reading every
        # pending row of the campaign to test its key.
        rows = self._conn.execute(
            f"UPDATE jobs SET status = '{RUNNING}', attempts = attempts + 1,"
            " updated_wall = ? WHERE id IN (SELECT id FROM jobs"
            f" WHERE campaign_id = ? AND +status = '{PENDING}'"
            " AND spec_hash IN (SELECT value FROM json_each(?))"
            " ORDER BY id LIMIT ?) RETURNING id, spec_hash",
            # Bookkeeping timestamp, not simulation state.
            (time.time(), campaign_id, json.dumps(list(keys)), -1 if limit is None else limit),
        ).fetchall()
        self._commit()
        # RETURNING hands rows back in no promised order.
        return [key for _, key in sorted(map(tuple, rows))]

    def claim(self, campaign_id: int, key: str) -> bool:
        """Atomically take one pending job: :meth:`claim_many` of one key.

        Returns ``True`` when this caller won the claim; ``False`` when
        the job exists but was no longer pending (another runner took
        it, or it already finished).  Raises :class:`KeyError` for a job
        that is not in the campaign at all.
        """
        if self.claim_many(campaign_id, [key]):
            return True
        if self.job(campaign_id, key) is None:
            raise KeyError(f"no job {key!r} in campaign {campaign_id}")
        return False

    def _move(self, campaign_id: int, target: str, rows: Sequence[Sequence[Any]]) -> None:
        """Move every job ``rows`` names to ``target``: one guarded
        ``executemany``.  A row is ``(key, *values)``, the values of
        ``_MOVE_COLUMNS[target]`` in order.

        Only a job in a state ``_TRANSITIONS`` lets reach ``target``
        changes, so a batch moved every row exactly when the statement
        changed as many rows as it was given.  Otherwise the batch is
        undone (a savepoint wraps it) and the error its first illegal
        move would raise alone is raised, in order: :class:`KeyError`
        for a job the campaign does not have, :class:`TransitionError`
        for an illegal move (a key given twice moves once).
        """
        if not rows:
            return
        # Bookkeeping timestamp, not simulation state.
        now = time.time()
        conn = self._conn
        if not conn.in_transaction:
            # A savepoint that opened the transaction would commit it on
            # its release, in the middle of a :meth:`transaction` scope.
            conn.execute("BEGIN")
        conn.execute("SAVEPOINT move")
        moved = conn.executemany(
            _MOVE_SQL[target], [(now, *values, campaign_id, key) for key, *values in rows]
        ).rowcount
        if moved == len(rows):
            conn.execute("RELEASE move")
            self._commit()
            return
        conn.execute("ROLLBACK TO move")
        conn.execute("RELEASE move")
        try:
            self._refuse(campaign_id, target, [row[0] for row in rows])
        finally:
            if not self._in_scope:
                conn.rollback()

    def _refuse(self, campaign_id: int, target: str, keys: List[str]) -> None:
        """Raise the error the one-row moves of ``keys`` to ``target``
        would raise first, replayed from their states in the store."""
        states = {
            key: status
            for key, status in self._conn.execute(
                "SELECT spec_hash, status FROM jobs WHERE campaign_id = ?"
                " AND spec_hash IN (SELECT value FROM json_each(?))",
                (campaign_id, json.dumps(keys)),
            )
        }
        for key in keys:
            current = states.get(key)
            if current is None:
                raise KeyError(f"no job {key!r} in campaign {campaign_id}")
            if target not in _TRANSITIONS[current]:
                raise TransitionError(f"job {key[:12]} cannot go {current!r} -> {target!r}")
            states[key] = target
        raise RuntimeError(f"a move to {target!r} changed fewer jobs than it was given")

    def mark_done_many(
        self, campaign_id: int, rows: Sequence[Tuple[str, Optional[str], Optional[float]]]
    ) -> None:
        """``(key, result_path, wall_s)`` rows to ``done``, clearing any
        error: one guarded statement (see :meth:`_move`)."""
        self._move(campaign_id, DONE, [(*row, None, None, None) for row in rows])

    def mark_done(
        self,
        campaign_id: int,
        key: str,
        result_path: Optional[str] = None,
        wall_s: Optional[float] = None,
    ) -> None:
        self.mark_done_many(campaign_id, [(key, result_path, wall_s)])

    def mark_failed_many(
        self,
        campaign_id: int,
        rows: Sequence[Tuple[str, str, str, Optional[str], Optional[float]]],
    ) -> None:
        """``(key, error_type, error_message, postmortem, wall_s)`` rows to
        ``failed``: one guarded statement (see :meth:`_move`)."""
        self._move(campaign_id, FAILED, rows)

    def mark_failed(
        self,
        campaign_id: int,
        key: str,
        error_type: str,
        error_message: str,
        postmortem: Optional[str] = None,
        wall_s: Optional[float] = None,
    ) -> None:
        self.mark_failed_many(
            campaign_id, [(key, error_type, error_message, postmortem, wall_s)]
        )

    def reset_running(self, campaign_id: int) -> int:
        """Crash recovery: return orphaned ``running`` jobs to ``pending``.

        Only call this when no other drainer is live: a ``running`` row
        then necessarily belongs to a dead process and is safe to take
        back.  Concurrent drainers skip this step
        (``drain(reset_orphans=False)``) so they cannot steal each
        other's in-flight jobs.  Returns how many were reset.
        """
        keys = [(key,) for key, _ in self._attempts(campaign_id, RUNNING)]
        self._move(campaign_id, PENDING, keys)
        return len(keys)

    def requeue_failed(self, campaign_id: int, max_attempts: int = 3) -> Tuple[int, int]:
        """Return failed jobs to ``pending``, respecting the attempt cap.

        Returns ``(requeued, exhausted)`` -- jobs whose attempt count
        already reached ``max_attempts`` stay failed so a deterministic
        crash cannot loop forever.
        """
        failed = self._attempts(campaign_id, FAILED)
        keys = [(key,) for key, attempts in failed if attempts < max_attempts]
        self._move(campaign_id, PENDING, keys)
        return len(keys), len(failed) - len(keys)

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
    def record_journal_lines(self, campaign_id: int, lines: Sequence[Tuple[str, str]]) -> None:
        """Index run-journal records given as ``(record type, line)``, the
        line as the journal wrote it: one ``executemany``."""
        if not lines:
            return
        self._conn.executemany(
            "INSERT INTO journal (campaign_id, record, entry) VALUES (?, ?, ?)",
            [(campaign_id, record, line) for record, line in lines],
        )
        self._commit()

    def record_journal(self, campaign_id: int, entry: Dict[str, Any]) -> None:
        """Index one run-journal record, given as the dict it was written
        from: :meth:`record_journal_lines` of its line."""
        self.record_journal_lines(
            campaign_id, [(str(entry.get("record", "unknown")), _JOURNAL_LINE.encode(entry))]
        )

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
