"""Bandwidth-grid sweeps: the machinery behind the heat-map figures.

The paper sweeps WiFi x LTE regulated bandwidths over
``{0.3, 0.7, 1.1, 1.7, 4.2, 8.6}`` Mbps (Figs 2, 6, 7, 9, 10) and over
``1..10`` Mbps for the wget matrices (Figs 18, 19).  :func:`streaming_grid`
runs one streaming session per (wifi, lte) cell and scheduler and returns
the ratio-to-ideal matrix plus the underlying run results;
:func:`wget_matrix` is the download-time analogue.

Both sweeps are embarrassingly parallel, so both submit their cells
through an :class:`~repro.experiments.exec.ExperimentExecutor` -- pass
``executor=ExperimentExecutor(jobs=N, cache_dir=...)`` to fan a sweep out
across cores and memoize finished cells; the default is the serial
reference path, which produces byte-identical results.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.apps.bulk import BulkDownloadResult, BulkDownloadSpec
from repro.apps.dash.media import VideoManifest
from repro.experiments.exec import ExperimentExecutor
from repro.experiments.ideal import ideal_average_bitrate
from repro.experiments.runner import StreamingRunConfig, StreamingRunResult
from repro.net.profiles import lte_config, wifi_config

#: The paper's streaming bandwidth set (Mbps), chosen "slightly larger"
#: than the Table 1 bit rates.
PAPER_BANDWIDTH_GRID_MBPS: Tuple[float, ...] = (0.3, 0.7, 1.1, 1.7, 4.2, 8.6)

#: The wget matrices' bandwidth set (Figs 18, 19), Mbps.
PAPER_WGET_GRID_MBPS: Tuple[float, ...] = tuple(float(v) for v in range(1, 11))

Cell = Tuple[float, float]

#: One wget-matrix coordinate: (size_bytes, wifi_mbps, lte_mbps, scheduler).
WgetCell = Tuple[int, float, float, str]


def streaming_grid_specs(
    base_config: StreamingRunConfig,
    wifi_values_mbps: Sequence[float] = PAPER_BANDWIDTH_GRID_MBPS,
    lte_values_mbps: Sequence[float] = PAPER_BANDWIDTH_GRID_MBPS,
    runs_per_cell: int = 1,
) -> List[Tuple[Cell, StreamingRunConfig]]:
    """The (cell, spec) list a grid sweep executes, in deterministic order.

    Per-run seeding is deterministic: repetition ``i`` of a cell runs at
    ``base_config.seed + i``, independent of execution order or worker
    count.
    """
    specs: List[Tuple[Cell, StreamingRunConfig]] = []
    for wifi in wifi_values_mbps:
        for lte in lte_values_mbps:
            for run_index in range(runs_per_cell):
                specs.append(
                    (
                        (wifi, lte),
                        replace(
                            base_config,
                            wifi_mbps=wifi,
                            lte_mbps=lte,
                            seed=base_config.seed + run_index,
                        ),
                    )
                )
    return specs


def streaming_grid(
    base_config: StreamingRunConfig,
    wifi_values_mbps: Sequence[float] = PAPER_BANDWIDTH_GRID_MBPS,
    lte_values_mbps: Sequence[float] = PAPER_BANDWIDTH_GRID_MBPS,
    runs_per_cell: int = 1,
    executor: Optional[ExperimentExecutor] = None,
) -> Dict[Cell, List[StreamingRunResult]]:
    """Run a streaming session for every (wifi, lte) bandwidth pair.

    Returns a mapping ``(wifi_mbps, lte_mbps) -> [results...]`` with
    ``runs_per_cell`` seeds per cell.  ``executor`` parallelizes and/or
    caches the sweep; omitted, cells run serially in this process.
    """
    cells_and_specs = streaming_grid_specs(
        base_config, wifi_values_mbps, lte_values_mbps, runs_per_cell
    )
    if executor is None:
        executor = ExperimentExecutor()
    run_results = executor.run([spec for _, spec in cells_and_specs])
    results: Dict[Cell, List[StreamingRunResult]] = {}
    for (cell, _), result in zip(cells_and_specs, run_results):
        results.setdefault(cell, []).append(result)
    return results


def wget_matrix_specs(
    schedulers: Sequence[str],
    sizes: Sequence[int],
    wifi_values_mbps: Sequence[float] = PAPER_WGET_GRID_MBPS,
    lte_values_mbps: Sequence[float] = PAPER_WGET_GRID_MBPS,
    seed: int = 0,
) -> List[Tuple[WgetCell, BulkDownloadSpec]]:
    """The (cell, spec) list a wget sweep executes, in deterministic order."""
    coords: List[WgetCell] = [
        (size, wifi, lte, scheduler)
        for size in sizes
        for wifi in wifi_values_mbps
        for lte in lte_values_mbps
        for scheduler in schedulers
    ]
    return [
        (
            (size, wifi, lte, scheduler),
            BulkDownloadSpec(
                scheduler=scheduler,
                path_configs=(wifi_config(wifi), lte_config(lte)),
                size=size,
                seed=seed,
            ),
        )
        for (size, wifi, lte, scheduler) in coords
    ]


def wget_matrix(
    schedulers: Sequence[str],
    sizes: Sequence[int],
    wifi_values_mbps: Sequence[float] = PAPER_WGET_GRID_MBPS,
    lte_values_mbps: Sequence[float] = PAPER_WGET_GRID_MBPS,
    seed: int = 0,
    executor: Optional[ExperimentExecutor] = None,
) -> Dict[WgetCell, BulkDownloadResult]:
    """The paper's wget sweep: one download per size x cell x scheduler.

    Figs 18 and 19 are slices of this matrix (Fig 18 pins WiFi at 1 Mbps;
    Fig 19 takes the ECF/default completion-time ratio).  Returns
    ``(size, wifi_mbps, lte_mbps, scheduler) -> BulkDownloadResult``.
    """
    cells_and_specs = wget_matrix_specs(
        schedulers, sizes, wifi_values_mbps, lte_values_mbps, seed
    )
    coords = [cell for cell, _ in cells_and_specs]
    specs = [spec for _, spec in cells_and_specs]
    if executor is None:
        executor = ExperimentExecutor()
    return dict(zip(coords, executor.run(specs)))


def bitrate_ratio_matrix(
    grid: Dict[Cell, List[StreamingRunResult]],
    chunk_duration: float = 5.0,
    steady_state: bool = True,
) -> Dict[Cell, float]:
    """Measured-over-ideal average bit rate per cell (Figs 2, 9).

    ``steady_state`` averages only post-startup chunks, which makes
    scaled-down videos comparable to the paper's 20-minute runs (where
    startup is a negligible fraction of the average).
    """
    ratios: Dict[Cell, float] = {}
    for (wifi, lte), runs in grid.items():
        manifest = VideoManifest(chunk_duration=chunk_duration)
        ideal = ideal_average_bitrate([wifi * 1e6, lte * 1e6], manifest)
        if steady_state:
            measured = sum(r.metrics.steady_average_bitrate_bps for r in runs) / len(runs)
        else:
            measured = sum(r.average_bitrate_bps for r in runs) / len(runs)
        ratios[(wifi, lte)] = min(1.0, measured / ideal) if ideal > 0 else 0.0
    return ratios


def fraction_fast_matrix(
    grid: Dict[Cell, List[StreamingRunResult]],
) -> Dict[Cell, float]:
    """Mean fast-subflow traffic fraction per cell (Figs 7, 10)."""
    return {
        cell: sum(r.fraction_fast for r in runs) / len(runs)
        for cell, runs in grid.items()
    }


def format_matrix(
    matrix: Dict[Cell, float],
    wifi_values: Iterable[float],
    lte_values: Iterable[float],
    scale: float = 1.0,
    width: int = 6,
    precision: int = 2,
) -> str:
    """Render a cell->value mapping as an aligned text heat map."""
    wifi_list = list(wifi_values)
    lte_list = list(lte_values)
    header = " " * (width + 1) + " ".join(f"{w:>{width}.1f}" for w in wifi_list)
    lines = [header + "   (WiFi Mbps ->)"]
    for lte in reversed(lte_list):
        row = [f"{lte:>{width}.1f}"]
        for wifi in wifi_list:
            value = matrix[(wifi, lte)] * scale
            row.append(f"{value:>{width}.{precision}f}")
        lines.append(" ".join(row))
    lines.append("(LTE Mbps ^)")
    return "\n".join(lines)
