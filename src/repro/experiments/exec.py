"""Parallel experiment execution with result caching.

Every paper figure is a sweep of independent simulations -- grid cells x
schedulers x seeds -- that the original harnesses executed strictly
serially.  :class:`ExperimentExecutor` fans those runs out across a
process pool and memoizes finished runs on disk:

* **Fan-out**: any batch of :mod:`repro.experiments.spec` specs runs on
  ``jobs`` worker processes.  Specs and results cross the pool boundary
  in their dict wire format, so workers never pickle live simulator
  objects.  Results come back in submission order, and a batch is
  bit-for-bit identical whatever ``jobs`` is: each run is a pure
  function of its spec (the spec carries the seed).
* **Caching**: with a ``cache_dir``, every finished run is stored as
  canonical JSON under its :func:`~repro.experiments.spec.spec_hash`
  (content address), behind a one-line header that carries the body's
  sha256 (:class:`ResultCache`).  Re-running a half-finished campaign
  executes only the missing cells; a warm cache executes nothing.  Who
  parses what: a campaign drain (:meth:`ExperimentExecutor.execute`)
  checks each hit's header and digest and never parses its body;
  :meth:`ExperimentExecutor.run` and the campaign's ``fetch`` check the
  digest, then parse the body once.  Who hashes what: a campaign's
  ``submit`` hashes each spec once, and its store row keeps the key; the
  drain runs on the store's keys and decodes no spec for a hit; a miss's
  wire, loaded from the store, must hash to its key before it runs (a
  row that does not fails alone); ``run`` and the campaign's
  ``fetch(specs)`` hash the caller's specs.
* **Timeout + retry**: a per-run wall-clock ``timeout_s`` (enforced via
  ``SIGALRM`` on POSIX) converts a wedged simulation into a
  :class:`RunTimeoutError`, and the executor retries it -- like a run
  whose pool worker died -- up to ``retries`` times before failing the
  batch: one stuck run cannot stall a campaign forever.
* **Progress**: pass ``progress=True`` for a stderr ticker with ETA, or
  a callable receiving :class:`ProgressEvent` for custom reporting.

This is the one engine.  Ad-hoc sweeps use it as is (no cache needed,
fail-fast with the original exception); a campaign
(:mod:`repro.service.runner`) is durable state over it and drives it
directly, keep-going, through ``on_look``.

A *look* is the unit the executor reports in: every job it found
finished in one glance at its sources -- a slice of the cache scan (at
most :data:`LOOK_SLICE` hits), one ``wait()`` wake-up of the pool, one
finished inline job.  Journal line, ``stats`` and ``progress`` stay per
job; ``on_look`` receives the look's outcomes together, so a listener
that commits (the campaign runner) commits once per look.  The look in
flight is delivered on the way out of a batch that raises (fail-fast, a
raising journal observer), so nothing already recorded is lost.

Example
-------
::

    from repro.experiments.exec import ExperimentExecutor
    from repro.experiments.runner import StreamingSpec

    specs = [StreamingSpec(scheduler="ecf", wifi_mbps=w, lte_mbps=8.6,
                           video_duration=60.0, seed=s)
             for w in (0.3, 1.1, 4.2) for s in range(3)]
    with ExperimentExecutor(jobs=4, cache_dir=".repro-cache") as ex:
        results = ex.run(specs)
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.spec import (
    SCHEMA_VERSION,
    attach_perf,
    canonical_json,
    result_from_dict,
    run_spec,
    spec_from_dict,
    spec_to_dict,
    wire_hash,
)
from repro.obs.journal import RunJournal
from repro.sim.probe import env_on

PathLike = Union[str, "os.PathLike[str]"]
#: ``load(keys)`` -> ``{key: wire}``: the wire forms of the jobs a cache
#: scan missed, called at most once per batch.
_Load = Callable[[List[str]], Dict[str, Any]]
#: What one attempt came back with: the result dict, or what it raised.
_Attempt = Union[Dict[str, Any], BaseException]
#: ``settle(index, attempt, wall_s, attempts)`` -> must the job run again?
_Settle = Callable[[int, _Attempt, float, int], bool]
#: ``flush()``: the dispatcher's look is over, deliver it to ``on_look``.
_Flush = Callable[[], None]

#: Most outcomes one look of the cache scan delivers.  A warm campaign of
#: any size reaches its listener in slices of this many, so the campaign
#: runner's per-look transaction holds SQLite's write lock for milliseconds
#: and ``/status`` keeps moving while the scan runs.
LOOK_SLICE = 256

#: The tool switches the executor reads, each the ``ENV_VAR`` of the tool
#: it arms: the checker, the perf collector, the flight recorder.  A tool
#: is imported where its switch reads on, so a sweep with every switch
#: off never loads one.
_CHECK, _PERF, _OBS = "REPRO_CHECK", "REPRO_PERF", "REPRO_OBS"


class RunTimeoutError(RuntimeError):
    """A run exceeded its wall-clock budget."""


class ExperimentError(RuntimeError):
    """A run failed permanently (after exhausting any retries)."""


@dataclass
class ExecutorStats:
    """What a batch actually cost."""

    executed: int = 0
    cached: int = 0
    retried: int = 0
    failed: int = 0
    #: Cache-scan misses whose entry file exists: an entry refused as
    #: garbled, truncated, version-skewed or of another kind.
    refused: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.cached


@dataclass(frozen=True)
class JobOutcome:
    """Terminal fate of one spec in a batch, as seen by ``on_look``.

    Emitted exactly once per spec -- when it resolves from cache, when it
    finishes executing, or when it fails permanently.  ``index`` is the
    spec's position in the submitted batch; ``status`` is ``"cached"``,
    ``"executed"``, or ``"failed"``.  The campaign runner
    (:mod:`repro.service.runner`) moves jobs through the store's state
    machine from these, one look at a time, as the batch unfolds.
    """

    index: int
    spec_hash: str
    kind: str
    status: str
    wall_s: float
    attempts: int
    error: Optional[Dict[str, str]] = None
    postmortem: Optional[str] = None
    #: With ``REPRO_PERF`` set, the run's perf record
    #: (:meth:`repro.perf.counters.PerfRecord.to_dict` shape) as it rode
    #: back on the result dict -- including across the ``pool`` process
    #: boundary.  ``None`` on cache hits (the cache strips perf) and
    #: failures.  The campaign daemon sums these into its events/s.
    perf: Optional[Dict[str, Any]] = None

    def journal_fields(self) -> Dict[str, Any]:
        """This outcome as the journal's ``job`` record: no batch index,
        no perf record, ``error``/``postmortem`` only on a failure."""
        names = ["spec_hash", "kind", "status", "wall_s", "attempts"]
        if self.status == "failed":
            names += ["error", "postmortem"]
        return {name: getattr(self, name) for name in names}


@dataclass(frozen=True)
class FailedRun:
    """Placeholder result for a permanently failed spec under ``keep_going``.

    Occupies the failed spec's slot in the results list so positions
    still line up with the submitted batch.  Never cached, never
    journaled as a result -- it only exists in memory, in this batch.
    """

    spec_hash: str
    kind: str
    error_type: str
    error_message: str
    postmortem: Optional[str] = None


@dataclass(frozen=True)
class ProgressEvent:
    """One progress tick, emitted after every completed (or failed) run."""

    done: int
    total: int
    executed: int
    cached: int
    elapsed_s: float
    eta_s: Optional[float]
    failed: int = 0
    retried: int = 0


class ProgressReporter:
    """Default progress sink: a single self-overwriting stderr line."""

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def __call__(self, event: ProgressEvent) -> None:
        eta = "?" if event.eta_s is None else f"{event.eta_s:.0f}s"
        pct = 100.0 * event.done / event.total if event.total else 100.0
        self.stream.write(
            f"\r[{event.done}/{event.total}] {pct:3.0f}% "
            f"executed={event.executed} cached={event.cached} "
            f"failed={event.failed} "
            f"elapsed={event.elapsed_s:.1f}s eta={eta}"
        )
        if event.done == event.total:
            self.stream.write("\n")
        self.stream.flush()


@contextmanager
def _wall_clock_limit(timeout_s: Optional[float], label: str):
    """Raise :class:`RunTimeoutError` if the body runs past ``timeout_s``.

    Uses the real-time interval timer, so it fires even while the
    simulation loop never touches the event queue.  Silently a no-op
    where ``SIGALRM`` is unavailable (non-POSIX) or off the main thread.
    """
    usable = (
        timeout_s is not None
        and timeout_s > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _alarm(signum, frame):
        raise RunTimeoutError(f"run exceeded {timeout_s}s wall clock: {label}")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_payload(
    key: str, payload: Dict[str, Any], timeout_s: Optional[float]
) -> Dict[str, Any]:
    """Pool-worker entry point: the job's key and spec dict in, result
    dict out.

    Module-level (picklable) and dict-in/dict-out so nothing but plain
    values crosses the process boundary.  ``key`` is the parent's name for
    the job, whose wire it already checked against it: the timeout label
    and the postmortem path are the parent's, and no spec is hashed here.

    With ``REPRO_OBS`` set the whole attempt runs inside a flight window
    (:func:`repro.obs.flight.flight`): any exception -- sanitizer
    assertion, :class:`~repro.analysis.check.CheckError`,
    :class:`RunTimeoutError`, or a plain crash -- snapshots a postmortem
    bundle at the key's deterministic path before propagating, so the
    parent (which only sees a pickled exception) can find it again via
    :func:`repro.obs.flight.postmortem_dir_for`.
    """
    spec = spec_from_dict(payload)
    label = f"{payload['kind']} {key[:12]}"

    def invoke(target_spec: Any) -> Any:
        if env_on(_CHECK):
            # REPRO_CHECK: record a structured event log around the run
            # and verify the temporal property catalog over it.  A
            # CheckError propagates like any other worker failure.
            from repro.analysis import check

            result, _report = check.run_with_checks(run_spec, target_spec)
            return result
        return run_spec(target_spec)

    def run_once() -> Any:
        with _wall_clock_limit(timeout_s, label):
            if env_on(_PERF):
                # REPRO_PERF: collect deterministic counters + wall time
                # for this run and ship them on the result's perf field.
                from repro.perf import counters

                result, record = counters.measure(invoke, spec)
                attach_perf(result, record.to_dict())
                return result
            return invoke(spec)

    if not env_on(_OBS):
        return run_once().to_dict()

    from repro.obs import flight as obs_flight

    with obs_flight.flight() as recorder:
        try:
            result = run_once()
        except BaseException as exc:
            recorder.write_postmortem(
                kind=payload["kind"],
                spec=payload,
                spec_hash=key,
                seed=getattr(spec, "seed", None),
                rev=obs_flight.current_rev(),
                error=exc,
            )
            raise
    return result.to_dict()


def _misnamed(key: str, kind: str, wire: Any) -> Optional[str]:
    """Why ``wire`` cannot run as the ``kind`` job named ``key``, or
    ``None`` when it can: it must be a wire form of that kind that hashes
    to the key (a store row whose text was rewritten does not)."""
    if not isinstance(wire, dict):
        return f"no readable spec is stored under key {key[:12]}"
    if wire.get("kind") != kind:
        return f"the spec stored under key {key[:12]} is {wire.get('kind')!r}, not {kind!r}"
    actual = wire_hash(wire)
    if actual != key:
        return (
            f"the spec stored under key {key[:12]} hashes to {actual[:12]}: "
            "it is not the spec that was submitted"
        )
    return None


def _accepted(path: PathLike) -> Optional[Tuple[str, bytes]]:
    """The entry's ``(kind, body)`` when it counts, else ``None``: the
    one acceptance rule behind :func:`read_entry` and
    :meth:`ResultCache.verify` (the layout is :class:`ResultCache`'s)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    head, newline, body = data.partition(b"\n")
    if not newline:
        return None  # truncated inside the header, or header-less
    try:
        header = json.loads(head)
    except ValueError:
        return None
    if (
        not isinstance(header, dict)
        or header.get("schema_version") != SCHEMA_VERSION
        or header.get("result") is not True  # a payload stored without a result
        or not isinstance(header.get("kind"), str)
        or header.get("sha256") != hashlib.sha256(body).hexdigest()
    ):
        return None
    return header["kind"], body


def read_entry(path: PathLike) -> Optional[Dict[str, Any]]:
    """The payload of the :class:`ResultCache` entry at ``path``, parsed
    once its header and digest check out, or ``None`` when it does not
    count.  :meth:`ResultCache.get` by key; ``trace export`` by path."""
    found = _accepted(path)
    return None if found is None else json.loads(found[1])


class ResultCache:
    """Content-addressed on-disk store of finished runs.

    Entries live at ``<root>/<hash[:2]>/<hash>.json`` holding the spec
    alongside the result (the file is self-describing and greppable).
    An entry is two lines.  The header is canonical JSON naming the
    entry's ``kind``, its ``schema_version``, whether it holds a
    ``result``, and the ``sha256`` of the body; the body is
    ``canonical_json(payload)``, ASCII with no newline.  An entry counts
    when its header is well-formed, names this ``SCHEMA_VERSION`` and a
    result, and its body hashes to the header's digest; anything else
    (unreadable, truncated, garbled, version-skewed, incomplete, or in
    the older header-less layout) reads as a miss, and the next run
    rewrites it.

    The two readers share that rule.  :meth:`verify` reads the header and
    hashes the body without parsing it (a campaign drain's cache scan);
    :meth:`get` checks the same and then parses the body (``fetch``,
    ``ExperimentExecutor.run``); :func:`read_entry` is :meth:`get` by
    path (``trace export`` of an entry).  Writes are atomic (temp file +
    ``os.replace``), so a killed campaign never leaves a truncated entry
    behind, and a write that fails removes its temp file before
    re-raising.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        # What pathlib puts in front of ``<hash[:2]>`` (nothing for "."),
        # so an entry's path is one string join, not three Path joins.
        self._prefix = str(self.root / "_")[:-1]

    def entry_path(self, key: str) -> str:
        """``str(path_for(key))``, built without pathlib: the warm path
        asks for it three times per job."""
        return f"{self._prefix}{key[:2]}{os.sep}{key}.json"

    def path_for(self, key: str) -> Path:
        return Path(self.entry_path(key))

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry's payload, parsed, or ``None`` for a miss."""
        return read_entry(self.entry_path(key))

    def verify(self, key: str, kind: str) -> bool:
        """Whether :meth:`get` would return a ``kind`` entry, decided
        from the header and the body's digest without parsing the body."""
        found = _accepted(self.entry_path(key))
        return found is not None and found[0] == kind

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        target = self.path_for(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.parent / f".{key}.{os.getpid()}.tmp"
        body = canonical_json(payload)
        header = canonical_json(
            {
                "kind": payload.get("kind"),
                "result": "result" in payload,
                "schema_version": payload.get("schema_version"),
                "sha256": hashlib.sha256(body.encode()).hexdigest(),
            }
        )
        try:
            tmp.write_text(f"{header}\n{body}")
            os.replace(tmp, target)
        except BaseException:
            # A write that died half-way (full disk) must not leave its
            # temp file to eat what space is left.
            tmp.unlink(missing_ok=True)
            raise


class ExperimentExecutor:
    """Run batches of experiment specs in parallel, with caching.

    Parameters
    ----------
    jobs: worker processes; ``1`` executes inline in this process (the
        reference serial path -- results are identical either way).
    cache_dir: directory for the content-addressed result cache;
        ``None`` runs without one (nothing read or written).
    timeout_s: per-run wall-clock budget; ``None`` means unbounded.
    retries: extra attempts for a run that times out (or whose worker
        died) before the batch fails.
    progress: ``True`` for the built-in stderr ticker, a callable for
        custom handling of :class:`ProgressEvent`, falsy for silence.
    journal: a :class:`~repro.obs.journal.RunJournal`, a path to append
        one to, or ``None``.  With ``None`` and ``REPRO_OBS`` set, a
        journal is opened at ``<obs_dir>/journal.jsonl`` automatically,
        so every observed sweep leaves a per-job record behind.
    keep_going: with ``True``, a permanently failed spec no longer
        aborts the batch: its slot in the results list holds a
        :class:`FailedRun` and the remaining specs keep running.  The
        default (``False``) is fail-fast: a non-retryable error
        propagates as raised, exhausted retries raise
        :class:`ExperimentError`.
    on_look: callable receiving the list of :class:`JobOutcome` values
        of one look (see the module docstring): every spec reaches it
        exactly once, in a terminal state (cached / executed / failed),
        in completion order, never in an empty list.  This is the hook
        the campaign runner uses to persist job state without wrapping
        the executor.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[PathLike] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        progress: Union[bool, Callable[[ProgressEvent], None], None] = None,
        journal: Union[None, RunJournal, PathLike] = None,
        keep_going: bool = False,
        on_look: Optional[Callable[[List[JobOutcome]], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries!r}")
        self.jobs = int(jobs)
        self.cache = None if cache_dir is None else ResultCache(cache_dir)
        self.timeout_s = timeout_s
        self.retries = int(retries)
        if progress is True:
            self._progress: Optional[Callable[[ProgressEvent], None]] = ProgressReporter()
        elif callable(progress):
            self._progress = progress
        else:
            self._progress = None
        if journal is None and env_on(_OBS):
            from repro.obs.flight import obs_dir

            journal = obs_dir() / "journal.jsonl"
        if journal is None or isinstance(journal, RunJournal):
            self.journal: Optional[RunJournal] = journal
        else:
            self.journal = RunJournal(journal)
        self.keep_going = bool(keep_going)
        self.on_look = on_look
        self.stats = ExecutorStats()

    # -- context manager sugar (no persistent resources today) ----------
    def __enter__(self) -> "ExperimentExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    # -- the batch API ---------------------------------------------------
    def run(self, specs: Sequence[Any]) -> List[Any]:
        """Execute every spec; return typed results in submission order.

        Cache hits are rebuilt from disk without simulating (each entry
        read once, with :meth:`ResultCache.get`); misses run inline
        (``jobs=1``) or on the pool.  All results -- cached, inline, or
        pooled -- pass through the same ``to_dict``/``from_dict`` wire
        format, so the three paths are indistinguishable to the caller.
        """
        # One serialization per spec: the wire form is hashed here, shipped
        # to the worker and stored beside the result.
        wires = [spec_to_dict(spec) for spec in specs]
        keys = [wire_hash(wire) for wire in wires]
        by_key = dict(zip(keys, wires))
        results: List[Any] = [None] * len(keys)
        self._batch(keys, [wire["kind"] for wire in wires], lambda missed: by_key, results)
        return results

    def execute(self, jobs: Sequence[Tuple[str, str]], load: _Load) -> None:
        """:meth:`run` for a caller that names its jobs by key and reads
        results from the cache later (the campaign runner's drain): the
        same batch, outcomes, journal and ``on_look``, but no result
        object is built and no spec is decoded for a hit.

        ``jobs`` are ``(key, kind)`` pairs.  A cache hit is checked with
        :meth:`ResultCache.verify` (header and digest, the body never
        parsed).  ``load`` is called once, with the keys the scan missed,
        and returns ``{key: wire}``; a wire must be of the job's kind and
        hash to its key, or the job fails -- nothing simulated, an error
        that names the mismatch -- and the batch goes on.  An executed
        run is cached under its key and reported.

        Who hashes what: the campaign's ``submit`` hashed each spec once,
        the drain hands over the keys its store holds, and the only hash
        computed here is the check of a miss's wire against its key.
        """
        self._batch([key for key, _ in jobs], [kind for _, kind in jobs], load, None)

    def _batch(
        self,
        keys: List[str],
        kinds: List[str],
        load: _Load,
        results: Optional[List[Any]],
    ) -> None:
        """The one batch loop behind :meth:`run` (``results`` to fill in
        submission order) and :meth:`execute` (``results`` is ``None``)."""
        total = len(keys)
        cache, stats, journal = self.cache, self.stats, self.journal
        #: The wire form each miss runs from, by index: shipped to the
        #: worker and stored beside its result.
        wires: Dict[int, Dict[str, Any]] = {}
        # Wall clock is correct here: this measures the *host's* sweep
        # progress for ETA display, not anything inside a simulation.
        started = time.monotonic()
        done = 0
        look: List[JobOutcome] = []
        if journal is not None:
            journal.batch_start(
                total=total,
                jobs=self.jobs,
                cache=None if cache is None else str(cache.root),
                timeout_s=self.timeout_s,
                retries=self.retries,
            )

        def record(
            index: int,
            status: str,
            wall_s: float = 0.0,
            attempts: int = 0,
            exc: Optional[BaseException] = None,
            perf: Optional[Dict[str, Any]] = None,
        ) -> None:
            """A job reached a terminal state: build its outcome once and
            feed stats, journal, the look and progress from it."""
            nonlocal done
            error: Optional[Dict[str, str]] = None
            postmortem: Optional[str] = None
            if exc is not None:
                error = {"type": type(exc).__name__, "message": str(exc)}
                if env_on(_OBS):
                    # The worker writes the bundle at the path of the key it
                    # was handed, so the parent derives the same one here
                    # without anything crossing the pool boundary.
                    from repro.obs.flight import postmortem_dir_for

                    bundle = postmortem_dir_for(keys[index])
                    if bundle.exists():
                        postmortem = str(bundle)
                if results is not None:
                    results[index] = FailedRun(
                        spec_hash=keys[index],
                        kind=kinds[index],
                        error_type=error["type"],
                        error_message=error["message"],
                        postmortem=postmortem,
                    )
            outcome = JobOutcome(
                index=index,
                spec_hash=keys[index],
                kind=kinds[index],
                status=status,
                wall_s=round(wall_s, 6),
                attempts=attempts,
                error=error,
                postmortem=postmortem,
                perf=perf,
            )
            # A status is also the name of the counter it bumps.
            setattr(stats, status, getattr(stats, status) + 1)
            if exc is None or self.keep_going:
                done += 1  # under fail-fast the failed job aborts the batch
            if journal is not None:
                journal.job(**outcome.journal_fields())
            if self.on_look is not None:
                look.append(outcome)
            if self._progress is not None:
                elapsed = time.monotonic() - started
                eta: Optional[float] = None
                if done == total:
                    eta = 0.0
                elif stats.executed > 0:
                    eta = elapsed / max(done, 1) * (total - done)
                self._progress(
                    ProgressEvent(
                        done=done,
                        total=total,
                        executed=stats.executed,
                        cached=stats.cached,
                        elapsed_s=elapsed,
                        eta_s=eta,
                        failed=stats.failed,
                        retried=stats.retried,
                    )
                )

        def settle(index: int, attempt: _Attempt, wall_s: float, attempts: int) -> bool:
            """Decide what one finished attempt (its result dict, or the
            exception it raised) means for the job.  Returns ``True`` when
            the job must run again; raises under fail-fast.

            ``wall_s`` brackets all attempts inline and submit-to-completion
            (queue wait included) on the pool.
            """
            kind = kinds[index]
            if not isinstance(attempt, BaseException):
                if results is not None:
                    results[index] = result_from_dict(kind, attempt)
                perf = attempt.get("perf")
                if cache is not None:
                    # The perf record carries wall-clock time from *this* run;
                    # caching it would make the entry non-deterministic (and
                    # replay a stale measurement on every later hit).
                    cache.put(
                        keys[index],
                        {
                            "schema_version": SCHEMA_VERSION,
                            "kind": kind,
                            "spec": wires[index]["spec"],
                            "result": {k: v for k, v in attempt.items() if k != "perf"},
                        },
                    )
                record(
                    index, "executed", wall_s, attempts,
                    perf=perf if isinstance(perf, dict) else None,
                )
                return False
            # A timeout or a dead worker (a pool's BrokenProcessPool is a
            # BrokenExecutor) may be the host's fault, so the run gets
            # another try; anything else (CheckError, sanitizer assertions,
            # crashes) is the run's own verdict and permanent.
            retryable = isinstance(attempt, (RunTimeoutError, BrokenExecutor))
            if retryable and attempts <= self.retries:
                stats.retried += 1
                if journal is not None:
                    journal.retry(
                        spec_hash=keys[index], attempt=attempts, error=str(attempt)
                    )
                return True
            record(index, "failed", wall_s, attempts, exc=attempt)
            if self.keep_going:
                return False
            if retryable:
                raise ExperimentError(
                    f"{kind} run failed after {attempts} attempts: {attempt}"
                ) from attempt
            raise attempt  # the original exception, unwrapped

        def flush() -> None:
            """The look is over: hand ``on_look`` what it resolved."""
            nonlocal look
            if look:
                outcomes, look = look, []
                self.on_look(outcomes)

        missed: List[int] = []
        try:
            for index, key in enumerate(keys):
                kind = kinds[index]
                if cache is None:
                    hit = False
                elif results is None:
                    hit = cache.verify(key, kind)
                else:
                    entry = cache.get(key)
                    hit = entry is not None and entry["kind"] == kind
                    if hit:
                        results[index] = result_from_dict(kind, entry["result"])
                if hit:
                    record(index, "cached")
                    if len(look) >= LOOK_SLICE:
                        flush()
                else:
                    if cache is not None and os.path.exists(cache.entry_path(key)):
                        stats.refused += 1
                    missed.append(index)
            flush()
            loaded = load([keys[index] for index in missed]) if missed else {}
            pending: List[int] = []
            for index in missed:
                wire = loaded.get(keys[index])
                why = _misnamed(keys[index], kinds[index], wire)
                if why is None:
                    wires[index] = wire
                    pending.append(index)
                else:
                    settle(index, ExperimentError(why), 0.0, 0)
            flush()
            if self.jobs == 1 or len(pending) <= 1:
                self._run_inline(pending, keys, wires, settle, flush)
            else:
                self._run_on_pool(pending, keys, wires, settle, flush)
        finally:
            # Whatever ended the batch, the look in flight was recorded
            # (journal line, stats, progress): its listener hears of it too.
            try:
                flush()
            finally:
                if journal is not None:
                    journal.batch_end(
                        done=done,
                        executed=stats.executed,
                        cached=stats.cached,
                        failed=stats.failed,
                        retried=stats.retried,
                        refused=stats.refused,
                        elapsed_s=round(time.monotonic() - started, 6),
                    )

    # -- the two dispatchers: run it / submit it, then ``settle``; a look
    # -- is one finished inline job / one ``wait()`` wake-up of the pool ---
    def _run_inline(
        self,
        pending: List[int],
        keys: List[str],
        payloads: Dict[int, Dict[str, Any]],
        settle: _Settle,
        flush: _Flush,
    ) -> None:
        for index in pending:
            start = time.monotonic()
            attempts = 0
            again = True
            while again:
                attempts += 1
                attempt: _Attempt
                try:
                    attempt = _execute_payload(keys[index], payloads[index], self.timeout_s)
                except Exception as exc:
                    attempt = exc
                wall = time.monotonic() - start
                again = settle(index, attempt, wall, attempts)
            flush()

    def _run_on_pool(
        self,
        pending: List[int],
        keys: List[str],
        payloads: Dict[int, Dict[str, Any]],
        settle: _Settle,
        flush: _Flush,
    ) -> None:
        """Keep a bounded window of jobs in flight on a process pool.

        The window (two per worker: one running, one queued behind it)
        bounds what a dying worker takes down with it: the pool breaks
        every outstanding future, and nothing tells the victim from the
        culprit.  Each of them is charged the attempt, the pool is
        rebuilt, and the suspects rerun one at a time -- so a second
        death names its culprit -- before the queue resumes.
        """
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        queue: Deque[int] = deque(pending)
        suspects: Deque[int] = deque()
        attempts = dict.fromkeys(pending, 0)
        submitted_at: Dict[int, float] = {}
        while queue or suspects:
            source = suspects or queue
            workers = 1 if suspects else min(self.jobs, len(queue))
            window = 1 if suspects else 2 * workers
            futures: Dict[Any, int] = {}
            broken = False
            with ProcessPoolExecutor(max_workers=workers) as pool:
                while futures or (source and not broken):
                    while source and len(futures) < window and not broken:
                        index = source.popleft()
                        submitted_at[index] = time.monotonic()
                        call = (_execute_payload, keys[index], payloads[index], self.timeout_s)
                        try:
                            futures[pool.submit(*call)] = index
                        except BrokenProcessPool:  # a worker died since the last wait()
                            source.appendleft(index)
                            broken = True
                    completed, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for future in completed:
                        index = futures.pop(future)
                        attempts[index] += 1
                        wall = time.monotonic() - submitted_at[index]
                        attempt: _Attempt
                        try:
                            attempt = future.result()
                        except Exception as exc:
                            attempt = exc
                        try:
                            again = settle(index, attempt, wall, attempts[index])
                        except BaseException:
                            for other in futures:
                                other.cancel()
                            raise
                        if isinstance(attempt, BrokenProcessPool):
                            broken = True
                            if again:
                                suspects.append(index)
                        elif again:
                            source.appendleft(index)
                    flush()
