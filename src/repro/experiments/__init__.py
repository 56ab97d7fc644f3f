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

from repro.experiments.ideal import ideal_average_bitrate, ideal_fast_fraction
from repro.experiments.exec import ExperimentExecutor
from repro.experiments.runner import (
    StreamingRunConfig,
    StreamingRunResult,
    StreamingSpec,
    run_streaming,
)
from repro.experiments.grid import (
    PAPER_BANDWIDTH_GRID_MBPS,
    PAPER_WGET_GRID_MBPS,
    streaming_grid,
    wget_matrix,
)
from repro.experiments.spec import run_spec, spec_hash

__all__ = [
    "ideal_average_bitrate",
    "ideal_fast_fraction",
    "ExperimentExecutor",
    "run_spec",
    "spec_hash",
    "StreamingRunConfig",
    "StreamingRunResult",
    "StreamingSpec",
    "run_streaming",
    "streaming_grid",
    "wget_matrix",
    "PAPER_BANDWIDTH_GRID_MBPS",
    "PAPER_WGET_GRID_MBPS",
]
