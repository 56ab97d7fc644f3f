"""Structured run journal: per-job JSONL records for executor batches.

A 10k-cell sweep that dies at cell 7312 is undiagnosable from a progress
line.  The journal is an append-only JSONL file (one JSON object per
line) that :class:`~repro.experiments.exec.ExperimentExecutor` writes as
the batch unfolds, so after the fact you can answer: which specs ran,
which came from cache, which timed out and how often they were retried,
which failed and where their postmortem bundle landed, and how long each
one took.

Record schema (every line carries ``record``, ``seq``, and ``wall`` --
a host wall-clock timestamp, which is deliberate: the journal describes
the *campaign*, not anything inside a simulation):

``batch_start``
    ``total``, ``jobs``, ``cache`` (cache root or ``null``),
    ``timeout_s``, ``retries``.
``job``
    ``spec_hash``, ``kind``, ``status`` (``"cached"`` / ``"executed"`` /
    ``"failed"``), ``wall_s`` (parent-side: inline it brackets the run;
    on the pool it spans submit-to-completion, queue wait included),
    ``attempts``, and for failures ``error`` {``type``, ``message``} and
    ``postmortem`` (bundle path, when the flight recorder was on).
``retry``
    ``spec_hash``, ``attempt``, ``error`` -- one per timed-out attempt.
``batch_end``
    ``done``, ``executed``, ``cached``, ``failed``, ``retried``,
    ``refused`` (cache-scan misses whose entry file was there but did
    not count), ``elapsed_s``.

The file is held open from ``batch_start`` to ``batch_end`` (a record
outside a batch opens, appends and closes) and every record is flushed
as it is written, so the journal is safe to tail while a sweep runs and
no handle outlives its batch.  Load one back with :func:`read_journal`;
a campaign's per-status accounting is the store's SQL
``journal_summary``, which ``campaign status`` and ``/status`` serve.

Long-running campaigns (``campaign serve`` drains for days) would grow
the JSONL without bound, so the journal supports **rotation**: give the
constructor ``max_bytes`` and, when the active file exceeds it, it is
atomically renamed to ``<path>.1`` (replacing the previous generation,
which bounds total disk at roughly twice the size limit) and a fresh
active file is seeded with the last :data:`RETAIN_TAIL` records -- the
retained-tail guarantee: the most recent records stay greppable at
``path`` across every rotation.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, TextIO, Union

PathLike = Union[str, "os.PathLike[str]"]

#: How many of the newest records survive into the fresh file on rotation.
RETAIN_TAIL = 1024

#: The one encoder of every record's line (keys sorted, anything JSON
#: cannot carry as its ``str``).
_LINE = json.JSONEncoder(sort_keys=True, default=str)


class RunJournal:
    """Append-only JSONL journal of one or more executor batches.

    ``observer``, when given, is invoked with every record dict right
    after it is written; :attr:`last_text` then holds the record's line
    as written, without its newline.  The campaign store uses this to
    index journal records against their campaign (the index row is that
    text) without the executor knowing the store exists; observer
    failures propagate (a campaign that cannot index its journal should
    say so loudly, not drop records silently).

    ``max_bytes`` bounds the active file (see the module docstring).
    With ``max_bytes=None`` (the default) the journal is append-only
    forever.
    """

    def __init__(
        self,
        path: PathLike,
        observer: Optional[Callable[[Dict[str, Any]], None]] = None,
        *,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.observer = observer
        self.max_bytes = max_bytes
        self._seq = 0
        #: Between ``batch_start`` and ``batch_end`` the active file stays
        #: open across records (until a rotation replaces it).
        self._in_batch = False
        self._handle: Optional[TextIO] = None
        #: The newest record's line, without its newline.
        self.last_text = ""

    @property
    def rotated_path(self) -> Path:
        """Where the previous generation lands on rotation."""
        return self.path.with_name(self.path.name + ".1")

    def record(self, record_type: str, **fields: Any) -> Dict[str, Any]:
        """Append one record; returns the dict that was written."""
        self._seq += 1
        entry: Dict[str, Any] = {
            "record": record_type,
            "seq": self._seq,
            # Campaign bookkeeping, not simulation state: wall clock is
            # the honest timestamp for "when did this job finish".
            "wall": time.time(),
        }
        entry.update(fields)
        self.last_text = _LINE.encode(entry)
        if self._handle is None:
            self._handle = self.path.open("a")
        try:
            self._handle.write(self.last_text + "\n")
            self._handle.flush()
        finally:
            if not self._in_batch:
                self._close()
        if self.max_bytes is not None:
            self._maybe_rotate(self.max_bytes)
        if self.observer is not None:
            self.observer(entry)
        return entry

    def _maybe_rotate(self, max_bytes: int) -> None:
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size > max_bytes:
            self.rotate()

    def rotate(self) -> None:
        """Roll the active file to ``.1``, keeping the newest records.

        The rename is atomic (``os.replace``); the fresh active file is
        seeded with the last :data:`RETAIN_TAIL` lines of the old one, so
        a reader of ``self.path`` always sees the recent history.
        """
        self._close()  # a batch's next record opens the fresh file
        try:
            lines = [
                line
                for line in self.path.read_text().splitlines()
                if line.strip()
            ]
        except OSError:
            return
        os.replace(self.path, self.rotated_path)
        tail = lines[-RETAIN_TAIL:]
        with self.path.open("w") as handle:
            for line in tail:
                handle.write(line + "\n")

    def _close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- typed conveniences (thin wrappers; schema lives in the docstring)
    def batch_start(self, **fields: Any) -> Dict[str, Any]:
        self._in_batch = True
        return self.record("batch_start", **fields)

    def job(self, **fields: Any) -> Dict[str, Any]:
        return self.record("job", **fields)

    def retry(self, **fields: Any) -> Dict[str, Any]:
        return self.record("retry", **fields)

    def batch_end(self, **fields: Any) -> Dict[str, Any]:
        try:
            return self.record("batch_end", **fields)
        finally:
            self._in_batch = False
            self._close()


def read_journal(path: PathLike) -> List[Dict[str, Any]]:
    """Parse a journal file back into its records (skipping blank lines)."""
    records: List[Dict[str, Any]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        entry = json.loads(line)
        if not isinstance(entry, dict):
            raise ValueError(f"journal line is not an object: {line[:80]!r}")
        records.append(entry)
    return records
