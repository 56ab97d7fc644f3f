"""Unified observability layer: flight recorder, timelines, run journal.

Three pieces, each usable on its own:

* :mod:`repro.obs.flight` -- a default-off **flight recorder**: a bounded
  ring buffer of recent typed protocol events (the record types of
  :mod:`repro.analysis.events`) plus construction-time adoption of
  simulators, links, schedulers, and trace recorders, snapshotted into a
  **postmortem bundle** whenever a run dies (sanitizer assertion,
  temporal-property violation, timeout, or any worker exception).
  Enabled with ``REPRO_OBS=1`` (or the CLI's ``--obs``); a subscriber
  on the probe seam (:mod:`repro.sim.probe`), so the transport pays one
  ``is None`` test per point when nothing is armed.
* :mod:`repro.obs.timeline` -- exporters that turn an event log and
  trace series into Chrome trace-event / Perfetto JSON (one track per
  subflow; ECF wait intervals as duration events; CWND as counter
  tracks), JSONL, and the perf record as OpenMetrics text under the
  registry's ``repro_perf_*`` names, via
  ``python -m repro.cli trace export``.
* :mod:`repro.obs.journal` -- a structured per-job JSONL **run journal**
  for :class:`~repro.experiments.exec.ExperimentExecutor`, so a 10k-cell
  sweep is diagnosable after the fact.

This package sits above the protocol layers but below the executor: it
subscribes to the probe seam and is never imported from the transport
core.  See ``docs/observability.md`` for the bundle format and workflows.
"""

# The `flight()` context manager itself is NOT re-exported here: binding
# it at package level would shadow the `repro.obs.flight` submodule (the
# names collide), so open a window with `flight.flight()`.
from repro.obs.flight import (  # noqa: F401
    DIR_ENV_VAR,
    ENV_VAR,
    FlightRecorder,
    obs_dir,
    obs_enabled,
    postmortem_dir_for,
)
