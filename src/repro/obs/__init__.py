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
* :mod:`repro.obs.timeline` -- the exporter that turns an event log and
  trace series into Chrome trace-event / Perfetto JSON (one track per
  subflow; ECF wait intervals as duration events; CWND as counter
  tracks), via ``python -m repro.cli trace export``.
* :mod:`repro.obs.journal` -- a structured per-job JSONL **run journal**
  for :class:`~repro.experiments.exec.ExperimentExecutor`, so a 10k-cell
  sweep is diagnosable after the fact.

This package sits above the protocol layers and, but for the exporter
reading a cache entry through the executor's
:func:`~repro.experiments.exec.read_entry`, below the executor: it
subscribes to the probe seam and is never imported from the transport
core.  See ``docs/observability.md`` for the bundle format and workflows.
"""

import importlib
from typing import Any, List

# The `flight()` context manager itself is NOT re-exported here: binding
# it at package level would shadow the `repro.obs.flight` submodule (the
# names collide), so open a window with `flight.flight()`.  Each name is
# imported on first use, so ``import repro.obs.journal`` (the executor's
# run journal) runs neither the recorder nor the perf collector.
_HOME = {
    "DIR_ENV_VAR": "flight",
    "ENV_VAR": "flight",
    "FlightRecorder": "flight",
    "obs_dir": "flight",
    "obs_enabled": "flight",
    "postmortem_dir_for": "flight",
}

__all__ = [*_HOME]


def __getattr__(name: str) -> Any:
    """Import a public name's module on first use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *__all__})
