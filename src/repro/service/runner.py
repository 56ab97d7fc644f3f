"""The campaign runner: submit, drain, requeue, fetch.

:class:`CampaignRunner` is durable state over the one engine: jobs live
in the SQLite :class:`~repro.service.store.CampaignStore`, a drain claims
the pending ones and runs them through an
:class:`~repro.experiments.exec.ExperimentExecutor` it constructs from
the campaign's stored config (:mod:`repro.service.backends`), and the
executor's outcomes move the store's state machine, one look at a time::

    from repro.service import CampaignRunner, CampaignStore, PoolBackendConfig

    store = CampaignStore("campaigns.db")
    runner = CampaignRunner(
        store, "fig14", backend=PoolBackendConfig(jobs=4),
        cache_dir=".repro-cache",
    )
    runner.submit(specs)          # idempotent: re-submitting is free
    runner.drain()                # runs every pending job, keep-going
    runner.requeue()              # failed jobs back to pending (capped)
    results = runner.fetch(specs) # typed results, in your order
    runner.entries()              # (hash, kind, cache entry | why not), lenient

The runner is also a drop-in for :class:`ExperimentExecutor` where only
``run(specs)`` is used (``streaming_grid(executor=...)``,
``wget_matrix(executor=...)``): ``run`` is submit + drain + fetch.

Durability model: job state lives in SQLite, results live in the
content-addressed cache.  A drain commits once for its batch of claims
and once per *look* of the executor -- a slice of the cache scan, one
wake-up of the pool, one finished inline job: the journal-index rows of
the look's jobs together with their transitions, after their JSONL
lines and their cache entries are on disk.  A killed drain loses at
most the bookkeeping of the look in flight; its results are already in
the cache and the next drain journals them as ``"cached"`` (that
journal line is the proof a resume did not re-simulate).  What it
leaves behind are ``running`` rows: the next drain calls
``reset_running`` and re-claims them.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.experiments.exec import ExperimentExecutor, FailedRun, JobOutcome, ResultCache
from repro.experiments.spec import result_from_dict, spec_from_dict, spec_hash
from repro.obs.journal import RunJournal
from repro.service.backends import (
    BackendConfig,
    InlineBackendConfig,
    backend_config_from_dict,
)
from repro.service.store import DONE, PENDING, CampaignStore

PathLike = Union[str, "os.PathLike[str]"]


class CampaignError(RuntimeError):
    """A fetch asked for results the campaign has not (successfully) run."""


class CampaignRunner:
    """Drive one named campaign through the executor.

    Parameters
    ----------
    store: the campaign store (shared by any number of campaigns).
    name: campaign name; reopening an existing name resumes it.
    backend: a frozen backend config (``InlineBackendConfig`` /
        ``PoolBackendConfig``): the executor's ``jobs``, ``timeout_s``
        and ``retries``.  Omitted, the campaign's stored config is used
        (resuming), falling back to inline for a brand-new campaign.
    cache_dir: the content-addressed result cache -- required, because
        campaign results live in the cache (the store only keeps paths).
    journal: optional journal path; records are additionally indexed
        into the store, so ``status`` can count cache hits per drain.
    max_attempts: per-job attempt budget enforced by ``requeue``.
    progress: forwarded to the executor (``True`` for the stderr ticker).
    journal_kwargs: extra :class:`~repro.obs.journal.RunJournal`
        constructor options (``max_bytes`` / ``retain_tail``) -- the
        daemon uses this to bound the journal for days-long drains.
    journal_observer: additional callable invoked with every journal
        record as it is written (a ``job`` record before the store
        indexes it -- the index row commits with the job's transition,
        at the end of its look); the telemetry registry hangs off this.
    on_outcome: additional callable invoked with every
        :class:`~repro.experiments.exec.JobOutcome` after its look has
        committed -- carries the per-job perf record (when
        ``REPRO_PERF`` is on) to the metrics layer.
    """

    def __init__(
        self,
        store: CampaignStore,
        name: str,
        backend: Optional[BackendConfig] = None,
        cache_dir: Optional[PathLike] = None,
        journal: Optional[PathLike] = None,
        max_attempts: int = 3,
        progress: Any = None,
        journal_kwargs: Optional[Dict[str, Any]] = None,
        journal_observer: Optional[Callable[[Dict[str, Any]], None]] = None,
        on_outcome: Optional[Callable[[JobOutcome], None]] = None,
    ) -> None:
        if cache_dir is None:
            raise ValueError(
                "a campaign needs a cache_dir: results live in the "
                "content-addressed cache, the store only tracks state"
            )
        self.store = store
        self.name = name
        self.cache_dir = str(cache_dir)
        self.cache = ResultCache(self.cache_dir)
        self.journal_path = None if journal is None else str(journal)
        self.max_attempts = int(max_attempts)
        self.progress = progress
        self.journal_kwargs = dict(journal_kwargs or {})
        self.journal_observer = journal_observer
        self.on_outcome = on_outcome

        existing = store.campaign(name)
        if backend is None:
            if existing is not None:
                backend = backend_config_from_dict(existing.backend)
            else:
                backend = InlineBackendConfig()
        self.backend_config = backend
        self.campaign_id = store.ensure_campaign(
            name, backend.to_dict(), cache_dir=self.cache_dir
        )

    # -- the submit/drain/requeue/fetch loop -----------------------------
    def submit(self, specs: Sequence[Any]) -> int:
        """Register specs as jobs; returns how many were new (idempotent)."""
        return self.store.add_jobs(self.campaign_id, specs)

    def drain(
        self, limit: Optional[int] = None, reset_orphans: bool = True
    ) -> Dict[str, int]:
        """Run pending jobs through the executor until none remain.

        Orphaned ``running`` jobs (a previous drain died) are reset
        first -- pass ``reset_orphans=False`` when several drainers
        share the campaign live, so they cannot steal each other's
        in-flight jobs.  Claiming is the filter: each pending job is
        taken with the store's atomic claim, and jobs another runner
        claimed in the meantime are skipped, so concurrent drains
        partition the work instead of re-running it.  Failures do not
        abort the drain (``keep_going``); they land in ``failed`` with
        their error and any postmortem path, for ``requeue`` to pick
        up.  ``limit`` bounds how many jobs this call claims (mainly
        for tests and incremental draining).

        Returns the per-status counts after the drain.
        """
        if reset_orphans:
            self.store.reset_running(self.campaign_id)
        pending = self.store.jobs(self.campaign_id, status=PENDING)
        if not pending:
            return self.status()
        # The executor journals a job when it finishes and reports it
        # with the rest of its look; the index rows wait here so that
        # they commit with the look's transitions, not on their own.
        job_entries: List[Dict[str, Any]] = []

        def on_look(outcomes: List[JobOutcome]) -> None:
            # One entry per outcome, in order: a job whose journal record
            # raised has neither.
            with self.store.transaction():
                for entry in job_entries:
                    self.store.record_journal(self.campaign_id, entry)
                job_entries.clear()
                for outcome in outcomes:
                    if outcome.status == "failed":
                        self.store.mark_failed(
                            self.campaign_id,
                            outcome.spec_hash,
                            error_type=(outcome.error or {}).get("type", "Error"),
                            error_message=(outcome.error or {}).get("message", ""),
                            postmortem=outcome.postmortem,
                            wall_s=outcome.wall_s,
                        )
                    else:  # "cached" or "executed": the result is in the cache
                        self.store.mark_done(
                            self.campaign_id,
                            outcome.spec_hash,
                            result_path=self.cache.entry_path(outcome.spec_hash),
                            wall_s=outcome.wall_s,
                        )
            if self.on_outcome is not None:
                for outcome in outcomes:
                    self.on_outcome(outcome)

        def observe(entry: Dict[str, Any]) -> None:
            is_job = entry["record"] == "job"
            if not is_job:
                self.store.record_journal(self.campaign_id, entry)
            if self.journal_observer is not None:
                self.journal_observer(entry)
            if is_job:
                job_entries.append(entry)

        journal: Optional[RunJournal] = None
        if self.journal_path is not None:
            journal = RunJournal(
                self.journal_path,
                observer=observe,
                **self.journal_kwargs,
            )
        # Built before anything is claimed: an executor that refuses its
        # knobs (jobs < 1, retries < 0) must not leave ``running`` rows
        # behind that nothing is running.
        executor = ExperimentExecutor(
            jobs=self.backend_config.jobs,
            cache_dir=self.cache_dir,
            timeout_s=self.backend_config.timeout_s,
            retries=self.backend_config.retries,
            progress=self.progress,
            journal=journal,
            keep_going=True,
            on_look=on_look,
        )
        claimed = []
        budget = None if limit is None else max(0, int(limit))
        # One commit for the whole batch of claims: the loop is milliseconds
        # of store calls, and a drainer killed before it commits has run
        # nothing yet.
        with self.store.transaction():
            for job in pending:
                if budget is not None and len(claimed) >= budget:
                    break
                if self.store.claim(self.campaign_id, job.spec_hash):
                    claimed.append(job)
        if claimed:
            executor.run([spec_from_dict(job.spec) for job in claimed])
        return self.status()

    def requeue(self) -> int:
        """Failed jobs back to pending (attempt-capped); returns count."""
        requeued, _exhausted = self.store.requeue_failed(
            self.campaign_id, max_attempts=self.max_attempts
        )
        return requeued

    def status(self) -> Dict[str, int]:
        """Per-status job counts for this campaign."""
        return self.store.counts(self.campaign_id)

    def entries(
        self, specs: Optional[Sequence[Any]] = None
    ) -> Iterator[Tuple[str, str, Union[Dict[str, Any], "CampaignError"]]]:
        """``(spec hash, kind, found)`` for ``specs`` (default: every job,
        store order): the one walk over store + cache behind :meth:`fetch`
        and ``campaign fetch``.  ``found`` is the job's cache entry, or the
        :class:`CampaignError` that says why there is none."""
        known = self.store.statuses(self.campaign_id)
        if specs is None:
            rows = [(key, kind, status) for key, (kind, status) in known.items()]
        else:
            wanted = [(spec_hash(spec), spec.kind) for spec in specs]
            rows = [(key, kind, known.get(key, (kind, "missing"))[1]) for key, kind in wanted]
        for key, kind, state in rows:
            if state != DONE:
                yield key, kind, CampaignError(
                    f"job {key[:12]} ({kind}) is {state}, not done; "
                    "drain (and maybe requeue) the campaign first"
                )
                continue
            found = self.cache.get(key)
            if found is None or found["kind"] != kind:
                found = CampaignError(
                    f"job {key[:12]} is done but its cache entry is gone "
                    f"(expected a {kind} result at {self.cache.path_for(key)})"
                )
            yield key, kind, found

    def fetch(self, specs: Optional[Sequence[Any]] = None) -> List[Any]:
        """Typed results for ``specs`` (default: every job, store order).

        Raises :class:`CampaignError` if any requested job is not done
        -- fetch is for finished work; ``status`` tells you what is left.
        """
        results: List[Any] = []
        for _key, kind, found in self.entries(specs):
            if isinstance(found, CampaignError):
                raise found
            results.append(result_from_dict(kind, found["result"]))
        return results

    def failures(self) -> List[FailedRun]:
        """The failed jobs, as :class:`FailedRun` values."""
        return [
            FailedRun(
                spec_hash=job.spec_hash,
                kind=job.kind,
                error_type=job.error_type or "Error",
                error_message=job.error_message or "",
                postmortem=job.postmortem,
            )
            for job in self.store.jobs(self.campaign_id, status="failed")
        ]

    # -- ExperimentExecutor drop-in --------------------------------------
    def run(self, specs: Sequence[Any]) -> List[Any]:
        """Submit + drain + fetch, in submission order.

        This is the duck-typed :class:`ExperimentExecutor` surface that
        ``streaming_grid(executor=...)`` and ``wget_matrix(executor=...)``
        call, so any sweep can run as a campaign by swapping the
        executor for a runner.
        """
        self.submit(specs)
        self.drain()
        return self.fetch(specs)
