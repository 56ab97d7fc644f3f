"""Shared infrastructure for the per-figure benchmark harnesses.

Every file under ``benchmarks/`` regenerates one table or figure of the
paper.  Heavyweight sweeps (the 6x6 streaming grids) are computed once per
pytest session and shared across figures through the cached helpers here.

Each harness writes its paper-shaped output table to
``benchmarks/output/<figure>.txt`` (and also prints it, visible with
``pytest -s``), registers a single-shot pytest-benchmark timing so
``pytest benchmarks/ --benchmark-only`` reports wall-clock per figure,
and states the figure's claims as :class:`~repro.experiments.report.Claim`
records: :func:`check_claims` writes them to
``benchmarks/output/<figure>.claims.json`` and asserts their verdicts.

Scaling note: benches default to a 30-60 s video instead of the paper's
1332 s and fewer repetitions; the shapes survive, the absolute statistics
are noisier.  Every harness accepts full-scale parameters through the
underlying ``repro.experiments`` APIs.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.exec import ExperimentExecutor
from repro.experiments.grid import streaming_grid
from repro.experiments.report import Claim
from repro.experiments.runner import StreamingRunConfig, StreamingRunResult, run_streaming

OUTPUT_DIR = Path(__file__).parent / "output"

#: Workers for the sweep harnesses.  ``REPRO_BENCH_JOBS=8 pytest
#: benchmarks/`` fans the heavy grids out over 8 processes;
#: ``REPRO_BENCH_CACHE=dir`` additionally memoizes finished cells, so an
#: interrupted benchmark session resumes instead of recomputing.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE") or None


def bench_executor() -> Optional[ExperimentExecutor]:
    """A fresh executor honoring the REPRO_BENCH_* environment knobs."""
    if BENCH_JOBS <= 1 and BENCH_CACHE is None:
        return None
    return ExperimentExecutor(jobs=BENCH_JOBS, cache_dir=BENCH_CACHE)

#: Grid used by the streaming heat-map benches (the paper's Section 3/5 set).
GRID_MBPS: Tuple[float, ...] = (0.3, 0.7, 1.1, 1.7, 4.2, 8.6)

#: Scaled-down video length for bench runs (paper: 1332 s).
BENCH_VIDEO_SECONDS = 60.0

#: Longer video for reset-count/trace benches where per-chunk effects matter.
BENCH_LONG_VIDEO_SECONDS = 120.0

Cell = Tuple[float, float]


def write_output(name: str, text: str) -> None:
    """Persist a harness's table and echo it for ``pytest -s``."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}")


def check_claims(name: str, claims: Sequence[Claim]) -> None:
    """Write ``claims`` beside the figure's table, then assert that each
    holds -- or, while it awaits its ROADMAP item, that it still fails."""
    checked = [dataclasses.replace(c, verdict=c.evaluate()) for c in claims]
    (OUTPUT_DIR / f"{name}.claims.json").write_text(
        json.dumps([dataclasses.asdict(c) for c in checked], indent=1, ensure_ascii=False) + "\n"
    )
    wrong = [c for c in checked if (c.verdict == "holds") == bool(c.pending)]
    assert not wrong, "\n".join(
        f"{c.id}: {c.text}: {c.measured()} {c.verdict}"
        + (f", but awaits {c.pending}" if c.pending else "")
        for c in wrong
    )


@functools.lru_cache(maxsize=None)
def scheduler_grid(scheduler: str, video: float = BENCH_VIDEO_SECONDS) -> Dict[Cell, List[StreamingRunResult]]:
    """One full 6x6 streaming grid for a scheduler (cached per session)."""
    base = StreamingRunConfig(scheduler=scheduler, video_duration=video)
    return streaming_grid(base, GRID_MBPS, GRID_MBPS, executor=bench_executor())


@functools.lru_cache(maxsize=None)
def hetero_run(
    scheduler: str,
    wifi: float = 0.3,
    lte: float = 8.6,
    video: float = BENCH_LONG_VIDEO_SECONDS,
    record_traces: bool = False,
    idle_reset: bool = True,
) -> StreamingRunResult:
    """One cached streaming run at a specific cell."""
    config = StreamingRunConfig(
        scheduler=scheduler,
        wifi_mbps=wifi,
        lte_mbps=lte,
        video_duration=video,
        record_traces=record_traces,
        idle_reset_enabled=idle_reset,
        sample_period=0.25,
    )
    return run_streaming(config)


def run_once(benchmark, fn):
    """Register ``fn`` as a single-shot benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
