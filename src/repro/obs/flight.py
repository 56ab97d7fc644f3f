"""Flight recorder: always-ready telemetry with postmortem bundles.

A failing simulation run normally leaves a one-line exception and zero
protocol context.  With the flight recorder on (``REPRO_OBS=1``, or the
CLI's ``--obs``), every executor run keeps a bounded ring buffer of
recent typed protocol events (reusing the record types of
:mod:`repro.analysis.events`) and adopts, at construction time, the
simulators, links, schedulers, and :class:`~repro.sim.trace.TraceRecorder`
instances built while it is active.  Both halves are subscribers on the
probe seam (:mod:`repro.sim.probe`), so the hot path is untouched when
observability is off.

When a run dies -- a :class:`~repro.analysis.sanitize.SanitizerError`, a
:class:`~repro.analysis.check.CheckError`, a
:class:`~repro.experiments.exec.RunTimeoutError`, or any other worker
exception -- the executor snapshots the recorder into a **postmortem
bundle**: a directory holding the event-log tail, trace-series tails,
perf counter totals, the spec, seed, and revision.  Bundles live under
``REPRO_OBS_DIR`` (default ``.repro-obs``) at a deterministic path
derived from the spec hash, so retries overwrite rather than accumulate
and the run journal can point at them.  Export a bundle with::

    python -m repro.cli trace export .repro-obs/postmortem-<hash> -o out.json

It sits above the transport core: it aggregates
:mod:`repro.analysis.events` and :mod:`repro.perf.counters` and is never
imported from below.
"""

from __future__ import annotations

import json
import os
import subprocess
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.analysis import events as _events
from repro.perf import counters as _perf
from repro.sim import probe as _probe
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder

PathLike = Union[str, "os.PathLike[str]"]

#: Environment variable that turns the flight recorder on in the executor
#: (pool workers inherit it, like ``REPRO_SANITIZE`` / ``REPRO_CHECK``).
ENV_VAR = "REPRO_OBS"

#: Environment variable overriding where bundles and the journal land.
DIR_ENV_VAR = "REPRO_OBS_DIR"

#: Default bundle/journal directory (relative to the working directory).
DEFAULT_DIR = ".repro-obs"

#: Default ring-buffer capacity: recent-history depth of a postmortem.
DEFAULT_CAPACITY = 4096

#: Default per-series tail kept from adopted trace recorders.
DEFAULT_TRACE_TAIL = 512

#: Version of the postmortem bundle layout (``manifest.json``).
BUNDLE_SCHEMA_VERSION = 1

#: This module's role on the probe seam.
_ROLE = "flight"


def obs_enabled() -> bool:
    """True when the environment asks for the flight recorder."""
    return _probe.env_on(ENV_VAR)


def obs_dir() -> Path:
    """Directory for postmortem bundles and the run journal."""
    return Path(os.environ.get(DIR_ENV_VAR) or DEFAULT_DIR)


def postmortem_dir_for(spec_hash: str, root: Optional[PathLike] = None) -> Path:
    """Deterministic bundle path for one spec (retries overwrite).

    Both the worker that writes the bundle and the parent process that
    journals its path derive it from the spec hash alone, so no path has
    to survive a process-pool boundary inside a pickled exception.
    """
    base = Path(root) if root is not None else obs_dir()
    return base / f"postmortem-{spec_hash[:12]}"


def current_rev() -> str:
    """Short git revision of the working tree, or ``"unknown"`` (the
    ``rev`` of a postmortem manifest)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


class FlightRecorder(_probe.Probe):
    """Bounded telemetry for one run, snapshot-able into a bundle.

    Construction-time adoption through the seam's ``adopt`` point
    (strong references are intentional -- a
    flight window brackets one run, so adopted objects die with it):

    * ``Simulator`` -> clock + event-loop counters in the manifest;
    * ``Link`` / ``Scheduler`` -> perf counter totals (aggregated through
      a private :class:`~repro.perf.counters.PerfCollector`, *not* the
      global perf window, so ``REPRO_PERF`` and ``REPRO_OBS`` compose);
    * ``TraceRecorder`` -> per-series sample tails for the bundle.

    The event ring itself is a capacity-capped
    :class:`~repro.analysis.events.EventLog` installed by :func:`flight`.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        trace_tail: int = DEFAULT_TRACE_TAIL,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        if trace_tail < 1:
            raise ValueError(f"trace_tail must be >= 1, got {trace_tail!r}")
        self.capacity = capacity
        self.trace_tail = trace_tail
        #: The ring buffer; set by :func:`flight` once installed.
        self.log: Optional[_events.EventLog] = None
        self._sims: List[Any] = []
        self._traces: List[Any] = []
        self._perf = _perf.PerfCollector()

    # -- the seam's construction point ----------------------------------
    def adopt(self, obj: Any) -> None:
        if isinstance(obj, TraceRecorder):
            self._traces.append(obj)
            return
        if isinstance(obj, Simulator):
            self._sims.append(obj)
        self._perf.adopt(obj)

    # -- snapshots -------------------------------------------------------
    def sim_now(self) -> float:
        """Largest simulated clock reached by any adopted simulator."""
        return max((sim.now for sim in self._sims), default=0.0)

    def counters(self) -> _perf.PerfSnapshot:
        """Perf counter totals over every adopted object."""
        return self._perf.snapshot()

    def trace_tails(self) -> Dict[str, List[List[float]]]:
        """Last ``trace_tail`` samples of every adopted trace series.

        Series names colliding across recorders (two simulations in one
        window) are disambiguated with a ``#<recorder-index>`` suffix.
        """
        out: Dict[str, List[List[float]]] = {}
        for index, recorder in enumerate(self._traces):
            for name in recorder.names():
                samples = recorder.series(name)[-self.trace_tail:]
                key = name if name not in out else f"{name}#{index}"
                out[key] = [[t, v] for t, v in samples]
        return out

    # -- the postmortem bundle ------------------------------------------
    def write_postmortem(
        self,
        *,
        kind: str,
        spec: Dict[str, Any],
        spec_hash: str,
        error: BaseException,
        seed: Optional[int] = None,
        rev: str = "unknown",
        root: Optional[PathLike] = None,
    ) -> Path:
        """Snapshot everything into a bundle directory; returns its path.

        The event tail prefers the log attached to the propagating error
        (``error.event_log``, set by
        :func:`repro.analysis.check.run_with_checks`) over the recorder's
        own ring: when ``REPRO_CHECK`` shadowed the ring with its full
        log, the failure context lives there.
        """
        bundle = postmortem_dir_for(spec_hash, root)
        bundle.mkdir(parents=True, exist_ok=True)

        log = getattr(error, "event_log", None)
        if log is None:
            log = self.log
        tail: List[Dict[str, Any]] = []
        dropped = 0
        if log is not None:
            records = log.tail(self.capacity)
            dropped = log.dropped + (len(log) - len(records))
            tail = [event.to_dict() for event in records]

        lines = [json.dumps(event, sort_keys=True) for event in tail]
        (bundle / "events.jsonl").write_text(
            "\n".join(lines) + ("\n" if lines else "")
        )
        (bundle / "traces.json").write_text(
            json.dumps(self.trace_tails(), sort_keys=True) + "\n"
        )
        counters = self.counters()
        (bundle / "perf.json").write_text(
            json.dumps(counters.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        manifest = {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "kind": kind,
            "spec": spec,
            "spec_hash": spec_hash,
            "seed": seed,
            "rev": rev,
            "error": {"type": type(error).__name__, "message": str(error)},
            "sim_now": self.sim_now(),
            "events": len(tail),
            "events_dropped": dropped,
            "adopted": self._perf.adopted_counts(),
            "trace_recorders": len(self._traces),
            "files": {
                "events": "events.jsonl",
                "traces": "traces.json",
                "perf": "perf.json",
            },
        }
        (bundle / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        return bundle


def current() -> Optional[FlightRecorder]:
    """The recorder of the innermost open window, or ``None``."""
    recorder = _probe.armed(_ROLE)
    return recorder if isinstance(recorder, FlightRecorder) else None


@contextmanager
def flight(
    capacity: int = DEFAULT_CAPACITY, trace_tail: int = DEFAULT_TRACE_TAIL
) -> Iterator[FlightRecorder]:
    """Open a flight-recording window; restores previous state on exit.

    Arms a fresh :class:`FlightRecorder` as the adoption target and a
    capacity-capped :func:`repro.analysis.events.recording` log as the
    ring buffer.  Windows nest; the innermost wins, exactly like
    :func:`repro.perf.counters.collecting`.
    """
    recorder = FlightRecorder(capacity=capacity, trace_tail=trace_tail)
    previous = _probe.swap(_ROLE, recorder)
    try:
        with _events.recording(capacity=capacity) as log:
            recorder.log = log
            yield recorder
    finally:
        _probe.swap(_ROLE, previous)
