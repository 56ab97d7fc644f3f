"""In-the-wild emulation (Section 6).

The paper moved the server to a Washington D.C. cloud VM and used a public
town WiFi plus AT&T LTE as-is, observing

* nine streaming runs over two days whose WiFi RTT spanned ~70 ms to ~1 s
  while LTE stayed near 70 ms (Fig 22), and
* thirty full CNN-page loads (Fig 23, Table 4).

We emulate each run by drawing a fresh pair of path profiles from the
``wild_*`` distributions (seeded per run index, shared across schedulers
so Default and ECF see identical conditions).

Fig 22 runs from a :class:`WildStreamingSpec`: :func:`run_wild` expands
it into independent streaming specs (:func:`wild_streaming_configs`),
runs them through an executor, and regroups the per-cell
:class:`~repro.experiments.runner.StreamingRunResult` values by run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.exec import ExperimentExecutor
from repro.experiments.runner import StreamingRunConfig, StreamingRunResult
from repro.net.profiles import PathConfig, wild_lte_config, wild_wifi_config
from repro.sim.rng import RngRegistry
from repro.workloads.web import WebBrowsingResult, WebBrowsingSpec


def wild_path_pair(run_index: int, base_seed: int = 6) -> Tuple[PathConfig, PathConfig]:
    """Draw the (WiFi, LTE) profiles for one wild run, deterministically.

    Each run index gets its own :class:`RngRegistry` stream, so adding
    runs (or new consumers of randomness) never perturbs existing draws.
    """
    rng = RngRegistry(base_seed).stream(f"wild.run{run_index}")
    return wild_wifi_config(rng), wild_lte_config(rng)


@dataclass
class WildStreamingRun:
    """One Fig 22 run: RTTs and throughput per scheduler."""

    run_index: int
    wifi_config: PathConfig
    lte_config: PathConfig
    results: Dict[str, StreamingRunResult]

    def throughput_mbps(self, scheduler: str) -> float:
        return self.results[scheduler].average_chunk_throughput_bps / 1e6


@dataclass(frozen=True)
class WildStreamingSpec:
    """Frozen description of the Fig 22 campaign -- a plain value.

    The campaign is fully determined by these fields: path profiles are
    drawn from ``base_seed`` per run index, and each (run, scheduler)
    cell becomes one :class:`StreamingRunConfig` submitted through the
    executor.
    """

    schedulers: Tuple[str, ...] = ("minrtt", "ecf")
    runs: int = 9
    video_duration: float = 120.0
    base_seed: int = 6

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedulers", tuple(self.schedulers))


@dataclass
class WildStreamingResult:
    """Fig 22 outcome: the campaign spec and its sorted run list.

    Not a wire format of its own: every cell's result is a
    :class:`StreamingRunResult`, which the executor caches and ships.
    """

    spec: WildStreamingSpec
    runs: List[WildStreamingRun]


def _wild_cells(
    spec: WildStreamingSpec,
) -> Tuple[
    List[Tuple[PathConfig, PathConfig]],
    List[Tuple[int, str]],
    List[StreamingRunConfig],
]:
    """``(drawn path pairs, (run, scheduler) cells, streaming specs)``."""
    drawn = sorted(
        (wild_path_pair(i, spec.base_seed) for i in range(spec.runs)),
        key=lambda pair: pair[0].one_way_delay,
    )
    cells: List[Tuple[int, str]] = []
    configs: List[StreamingRunConfig] = []
    for index, (wifi, lte) in enumerate(drawn, start=1):
        for scheduler in spec.schedulers:
            cells.append((index, scheduler))
            configs.append(
                StreamingRunConfig(
                    scheduler=scheduler,
                    video_duration=spec.video_duration,
                    path_configs=(wifi, lte),
                    seed=spec.base_seed + index,
                )
            )
    return drawn, cells, configs


def wild_streaming_configs(spec: WildStreamingSpec) -> List[StreamingRunConfig]:
    """The independent streaming specs one wild campaign executes.

    Deterministic in ``spec`` alone, so the same campaign can be sharded
    into jobs (``repro.cli campaign submit --sweep wild``) and later
    re-assembled by :func:`run_wild` from cached results.
    """
    _, _, configs = _wild_cells(spec)
    return configs


def run_wild(
    spec: WildStreamingSpec,
    executor: Optional[ExperimentExecutor] = None,
) -> WildStreamingResult:
    """Fig 22: per-run RTT and streaming throughput, Default vs ECF.

    Runs are sorted by the drawn WiFi RTT, as the paper sorts its x-axis.
    Every (run, scheduler) cell is an independent streaming spec with a
    deterministic seed (``base_seed + sorted run index``, shared across
    schedulers so each scheduler sees identical conditions), submitted
    through ``executor`` -- or run serially when none is given.
    """
    drawn, cells, configs = _wild_cells(spec)
    if executor is None:
        executor = ExperimentExecutor()
    run_results = executor.run(configs)

    by_index: Dict[int, Dict[str, StreamingRunResult]] = {}
    for (index, scheduler), result in zip(cells, run_results):
        by_index.setdefault(index, {})[scheduler] = result
    runs = [
        WildStreamingRun(
            run_index=index,
            wifi_config=wifi,
            lte_config=lte,
            results=by_index[index],
        )
        for index, (wifi, lte) in enumerate(drawn, start=1)
    ]
    return WildStreamingResult(spec=spec, runs=runs)


def run_wild_web(
    schedulers: Sequence[str] = ("minrtt", "ecf"),
    runs: int = 30,
    base_seed: int = 23,
    executor: Optional[ExperimentExecutor] = None,
) -> Dict[str, List[WebBrowsingResult]]:
    """Fig 23 / Table 4: wild CNN-page loads, Default vs ECF.

    Each (run, scheduler) page load is one :class:`WebBrowsingSpec`
    submitted through ``executor`` (serial when omitted).
    """
    cells: List[Tuple[str, int]] = []
    specs: List[WebBrowsingSpec] = []
    for run_index in range(runs):
        wifi, lte = wild_path_pair(run_index, base_seed)
        for scheduler in schedulers:
            cells.append((scheduler, run_index))
            specs.append(
                WebBrowsingSpec(
                    scheduler=scheduler,
                    path_configs=(wifi, lte),
                    seed=base_seed + run_index,
                )
            )
    if executor is None:
        executor = ExperimentExecutor()
    out: Dict[str, List[WebBrowsingResult]] = {name: [] for name in schedulers}
    for (scheduler, _), result in zip(cells, executor.run(specs)):
        out[scheduler].append(result)
    return out
