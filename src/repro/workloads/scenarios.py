"""Random bandwidth-change scenarios (Section 5.3).

"We change WiFi and LTE bandwidths randomly at exponentially distributed
intervals of time with an average of 40 seconds.  The bandwidth values are
selected from the set {0.3, 1.1, 1.7, 4.2, 8.6} Mbps, and chosen uniformly
at random.  Ten scenarios are generated, each using a different unique
random seed."

A scenario is a *pair* of realized schedules (WiFi, LTE) so every
scheduler experiences the identical bandwidth timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.net.bandwidth import PiecewiseBandwidth, RandomBandwidthProcess


@dataclass(frozen=True)
class BandwidthScenario:
    """One realized random-change scenario."""

    index: int
    wifi: PiecewiseBandwidth
    lte: PiecewiseBandwidth


def random_bandwidth_scenarios(
    count: int = 10,
    duration: float = 1200.0,
    mean_interval: float = 40.0,
    base_seed: int = 53,
) -> List[BandwidthScenario]:
    """Generate the paper's ten scenarios (or any number).

    Seeds are derived deterministically from ``base_seed`` so scenario
    ``i`` is stable across runs and schedulers.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count!r}")
    scenarios: List[BandwidthScenario] = []
    for index in range(count):
        wifi = RandomBandwidthProcess(
            seed=base_seed + 1000 + index, duration=duration, mean_interval=mean_interval
        ).realize()
        lte = RandomBandwidthProcess(
            seed=base_seed + 2000 + index, duration=duration, mean_interval=mean_interval
        ).realize()
        scenarios.append(BandwidthScenario(index=index, wifi=wifi, lte=lte))
    return scenarios
