"""Time-varying bandwidth processes (Section 5.3).

The paper's variable-bandwidth experiments change WiFi and LTE rates
"randomly at exponentially distributed intervals of time with an average of
40 seconds", drawing each new rate uniformly from
``{0.3, 1.1, 1.7, 4.2, 8.6}`` Mbps.  :class:`RandomBandwidthProcess`
implements exactly that; :class:`PiecewiseBandwidth` replays a fixed
schedule (useful for tests and for regenerating a specific scenario).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.path import Path
from repro.sim.codec import KindSpec
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

#: Rate set used by the paper's random-change scenarios (Mbps).
PAPER_RATE_SET_MBPS = (0.3, 1.1, 1.7, 4.2, 8.6)


@dataclass(frozen=True)
class BandwidthSpec(KindSpec):
    """A named, serializable description of a bandwidth process.

    Experiment configs carry these instead of live process objects so a
    run spec stays picklable (for process-pool workers) and content-
    hashable (for the result cache).  ``make_bandwidth_process`` turns a
    spec back into the live object; each process class's ``to_spec``
    goes the other way.
    """


class ConstantBandwidth:
    """Trivial process: the path keeps its configured rate.

    Exists so experiment code can treat fixed and variable scenarios
    uniformly.
    """

    def __init__(self, rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive, got {rate_bps!r}")
        self.rate_bps = float(rate_bps)

    def attach(self, sim: Simulator, path: Path) -> None:
        """Apply the rate once; nothing further is scheduled."""
        path.set_rate(self.rate_bps)

    def schedule_of_changes(self) -> List[Tuple[float, float]]:
        """The (time, rate) change list -- a single initial setting."""
        return [(0.0, self.rate_bps)]

    def to_spec(self) -> BandwidthSpec:
        return BandwidthSpec.of("constant", rate_bps=self.rate_bps)


class PiecewiseBandwidth:
    """Replay a fixed ``[(time, rate_bps), ...]`` schedule on a path."""

    def __init__(self, schedule: Sequence[Tuple[float, float]]) -> None:
        if not schedule:
            raise ValueError("schedule must contain at least one (time, rate) entry")
        previous = -1.0
        for time, rate in schedule:
            if time < 0 or rate <= 0:
                raise ValueError(f"invalid schedule entry ({time!r}, {rate!r})")
            if time <= previous:
                raise ValueError("schedule times must be strictly increasing")
            previous = time
        self.schedule = [(float(t), float(r)) for t, r in schedule]

    def attach(self, sim: Simulator, path: Path) -> None:
        """Schedule every rate change on the simulator."""
        first_time, first_rate = self.schedule[0]
        if first_time <= sim.now:
            path.set_rate(first_rate)
            remaining = self.schedule[1:]
        else:
            remaining = self.schedule
        for time, rate in remaining:
            sim.schedule_at(time, path.set_rate, rate)

    def schedule_of_changes(self) -> List[Tuple[float, float]]:
        return list(self.schedule)

    def rate_at(self, time: float) -> float:
        """Rate in force at simulated ``time`` (before any change at it)."""
        current = self.schedule[0][1]
        for change_time, rate in self.schedule:
            if change_time <= time:
                current = rate
            else:
                break
        return current

    def to_spec(self) -> BandwidthSpec:
        return BandwidthSpec.of("piecewise", schedule=tuple(self.schedule))


class RandomBandwidthProcess:
    """Markov-style random rate changes, as in Section 5.3.

    Intervals between changes are exponential with mean
    ``mean_interval`` (paper: 40 s); new rates are drawn uniformly from
    ``rate_set_mbps``.  A process is realized once (per seed) into a
    :class:`PiecewiseBandwidth`, so the same scenario can drive multiple
    schedulers for a fair comparison -- this mirrors the paper's "ten
    scenarios, each using a different unique random seed".
    """

    def __init__(
        self,
        seed: int,
        duration: float,
        mean_interval: float = 40.0,
        rate_set_mbps: Sequence[float] = PAPER_RATE_SET_MBPS,
        initial_rate_mbps: Optional[float] = None,
    ) -> None:
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration!r}")
        if mean_interval <= 0:
            raise ValueError(f"mean_interval must be positive, got {mean_interval!r}")
        if not rate_set_mbps:
            raise ValueError("rate_set_mbps must be non-empty")
        self.seed = seed
        self.duration = float(duration)
        self.mean_interval = float(mean_interval)
        self.rate_set_mbps = tuple(float(r) for r in rate_set_mbps)
        self.initial_rate_mbps = initial_rate_mbps

    def realize(self) -> PiecewiseBandwidth:
        """Draw one concrete schedule for this seed."""
        rng = RngRegistry(self.seed).stream("bandwidth.random")
        time = 0.0
        if self.initial_rate_mbps is not None:
            rate = float(self.initial_rate_mbps)
        else:
            rate = rng.choice(self.rate_set_mbps)
        schedule: List[Tuple[float, float]] = [(0.0, rate * 1e6)]
        while True:
            time += rng.expovariate(1.0 / self.mean_interval)
            if time >= self.duration:
                break
            schedule.append((time, rng.choice(self.rate_set_mbps) * 1e6))
        return PiecewiseBandwidth(schedule)

    def attach(self, sim: Simulator, path: Path) -> PiecewiseBandwidth:
        """Realize and install the schedule; returns it for inspection."""
        realized = self.realize()
        realized.attach(sim, path)
        return realized

    def to_spec(self) -> BandwidthSpec:
        return BandwidthSpec.of(
            "random",
            seed=self.seed,
            duration=self.duration,
            mean_interval=self.mean_interval,
            rate_set_mbps=self.rate_set_mbps,
            initial_rate_mbps=self.initial_rate_mbps,
        )


BandwidthProcess = Callable  # documentation alias; all processes share .attach()


_BANDWIDTH_FACTORIES: Dict[str, Callable[..., Any]] = {
    "constant": ConstantBandwidth,
    "piecewise": PiecewiseBandwidth,
    "random": RandomBandwidthProcess,
}

#: Canonical bandwidth-process kind names.
BANDWIDTH_PROCESS_KINDS = tuple(sorted(_BANDWIDTH_FACTORIES))


def registered_bandwidth_kinds() -> frozenset:
    """Every kind ``make_bandwidth_process`` resolves, extensions included.

    Unlike :data:`BANDWIDTH_PROCESS_KINDS` (frozen at import time), this
    reflects :func:`register_bandwidth_process` calls, so registry-aware
    tooling (``repro.analysis.lint``) sees custom kinds.
    """
    return frozenset(_BANDWIDTH_FACTORIES)


def register_bandwidth_process(kind: str, factory: Callable[..., Any]) -> None:
    """Register a custom process kind for spec-based construction.

    ``factory`` is called with the spec's params as keyword arguments and
    must return an object with ``attach(sim, path)``.
    """
    _BANDWIDTH_FACTORIES[kind] = factory


def make_bandwidth_process(spec: BandwidthSpec):
    """Instantiate the live process a :class:`BandwidthSpec` describes.

    Like every ``build`` here, always returns a fresh instance.
    """
    try:
        factory = _BANDWIDTH_FACTORIES[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown bandwidth process kind {spec.kind!r}; "
            f"choose from {sorted(_BANDWIDTH_FACTORIES)}"
        ) from None
    return factory(**spec.param_dict())
