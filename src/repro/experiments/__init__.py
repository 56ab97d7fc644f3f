"""Experiment harnesses: one entry point per paper figure/table.

* :mod:`~repro.experiments.ideal` -- the paper's ideal-performance models
  (ideal average bit rate, ideal fast-subflow traffic fraction).
* :mod:`~repro.experiments.spec` -- the ExperimentSpec/RunResult protocol
  every harness follows (frozen specs in, serializable results out).
* :mod:`~repro.experiments.exec` -- the parallel executor: process-pool
  fan-out, content-addressed result caching, timeouts, retries, progress.
* :mod:`~repro.experiments.runner` -- configurable single-run harnesses
  for streaming, bulk-download, and Web workloads.
* :mod:`~repro.experiments.grid` -- the 6x6 / 10x10 bandwidth-grid sweeps
  behind the heat-map figures.
* :mod:`~repro.experiments.wild` -- the Section 6 in-the-wild emulation.
"""

import importlib
from typing import Any, List

#: Each public name with the module it lives in.  ``__getattr__`` imports
#: it on first use, so importing one harness does not run the executor.
_HOME = {
    "ideal_average_bitrate": "ideal",
    "ideal_fast_fraction": "ideal",
    "ExperimentExecutor": "exec",
    "run_spec": "spec",
    "spec_hash": "spec",
    "StreamingRunConfig": "runner",
    "StreamingRunResult": "runner",
    "StreamingSpec": "runner",
    "run_streaming": "runner",
    "streaming_grid": "grid",
    "wget_matrix": "grid",
    "PAPER_BANDWIDTH_GRID_MBPS": "grid",
    "PAPER_WGET_GRID_MBPS": "grid",
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
