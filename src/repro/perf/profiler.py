"""Deterministic sim-profiler: per-component wall-time attribution.

The "next 10x" engine-speed item needs a *map* -- raw counters say how
many events ran, not where the wall time went.  This module attributes
host wall time to simulation components (engine dispatch, link delivery,
subflow processing, receiver reassembly, scheduler decisions, congestion
control updates, application callbacks) without perturbing the
simulation in any way:

* **Zero-cost when off.**  The profiler is a subscriber on the probe
  seam (:mod:`repro.sim.probe`), like the perf counters, the sanitizer
  and the flight recorder: every hook site tests one slot against
  ``None``.  With nothing armed the engine keeps its bare loop; the six
  golden digests are pinned by ``tests/test_perf.py`` and must not move.
* **Byte-identity safe when on.**  The profiler only *reads* the host
  clock around dispatches; it never touches simulated time, event order,
  or protocol state, so results (and digests) are identical with it on
  or off.  Event/call *counts* in its report are deterministic; only the
  wall-second figures are host-dependent.

Attribution model: the engine brackets every dispatched callback with
the seam's ``event_begin`` / ``event_end`` points; the callback's owner
class decides the component (``repro.net.link`` -> ``link.delivery``
and so on).  Finer-grained hot spots that are *calls inside* an event --
scheduler decisions, cc updates, receiver reassembly -- are timed at
their call sites via the ``timed`` point, which nests them under the
enclosing component so the collapsed-stack output reads like a
flamegraph::

    engine;link.delivery 41230
    engine;link.delivery;mptcp.receiver.reassembly 8120
    engine;tcp.subflow;scheduler.decision 20050

(weights are integer microseconds; feed the text straight to any
FlameGraph renderer).

Enable with the :func:`profiling` context manager.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, DefaultDict, Dict, Iterator, List, Optional, Tuple, TypeVar

from repro.sim import probe as _probe
from repro.sim.engine import Simulator

#: Owner-module prefix -> component name, longest prefix wins.
_COMPONENT_BY_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.net.link", "link.delivery"),
    ("repro.net", "net.other"),
    ("repro.tcp", "tcp.subflow"),
    ("repro.mptcp.receiver", "mptcp.receiver"),
    ("repro.mptcp", "mptcp.connection"),
    ("repro.apps", "app"),
    ("repro.sim", "engine.timer"),
)

_T = TypeVar("_T")

#: This module's role on the probe seam.
_ROLE = "profile"


class SimProfiler(_probe.Probe):
    """Accumulates wall time per component and per nested hot-spot.

    One instance is meant to span any number of runs (a whole bench
    workload, a whole campaign job); :meth:`report` and
    :meth:`collapsed` read out the totals.
    """

    def __init__(self) -> None:
        # ("engine", component), ("engine", component, hook) and
        # ("outside", hook) paths -> [calls, wall_seconds]; the
        # two-frame engine paths are the per-component totals.
        self._paths: DefaultDict[Tuple[str, ...], List[float]] = defaultdict(lambda: [0, 0.0])
        # classification cache: (owner type | bare callable) -> component
        self._classify_cache: Dict[Any, str] = {}
        # Currently dispatching component ("" between events).
        self._current: str = ""
        self._event_t0: float = 0.0
        self._event_wall: float = 0.0  # accumulated, across all events
        self._runs: int = 0
        self._run_wall: float = 0.0
        self._sims_adopted: int = 0
        # (host t0, event wall so far) per run() on the stack.
        self._open_runs: List[Tuple[float, float]] = []

    # -- adoption (construction-time, engine __init__) ------------------
    def adopt(self, obj: Any) -> None:
        """Note a simulator built while profiling (count only; the
        engine's ``run()`` does the actual bracketing)."""
        if isinstance(obj, Simulator):
            self._sims_adopted += 1

    # -- engine dispatch bracketing -------------------------------------
    def classify(self, callback: Callable[..., Any]) -> str:
        """Component owning a timer callback, by its bound owner's module."""
        owner = getattr(callback, "__self__", None)
        key: Any = type(owner) if owner is not None else callback
        cached = self._classify_cache.get(key)
        if cached is not None:
            return cached
        module = (
            type(owner).__module__ if owner is not None
            else getattr(callback, "__module__", "") or ""
        )
        component = "other"
        best = -1
        for prefix, name in _COMPONENT_BY_MODULE:
            if module.startswith(prefix) and len(prefix) > best:
                component = name
                best = len(prefix)
        self._classify_cache[key] = component
        return component

    def event_begin(self, sim: Any, event_time: float, timer: Any) -> None:
        self._current = self.classify(timer.callback)
        # Host-side attribution of host wall time; never simulated state.
        self._event_t0 = time.perf_counter()

    def event_end(self, sim: Any) -> None:
        dt = time.perf_counter() - self._event_t0
        component = self._current
        self._current = ""
        self._event_wall += dt
        slot = self._paths["engine", component]
        slot[0] += 1
        slot[1] += dt

    # -- nested hot-spot hooks ------------------------------------------
    def timed(self, name: str, fn: Callable[..., _T], *args: Any) -> _T:
        """Time ``fn(*args)`` as hot-spot ``name`` nested under the
        component currently dispatching."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            parent = self._current
            slot = self._paths["engine", parent, name] if parent else self._paths["outside", name]
            slot[0] += 1
            slot[1] += dt

    # -- run bracketing --------------------------------------------------
    def run_begin(self, sim: Any) -> None:
        self._open_runs.append((
            time.perf_counter(),
            self._event_wall,
        ))

    def run_end(self, sim: Any) -> None:
        t0, event_wall_before = self._open_runs.pop()
        total = time.perf_counter() - t0
        inside_events = self._event_wall - event_wall_before
        overhead = max(0.0, total - inside_events)
        self._runs += 1
        self._run_wall += total
        slot = self._paths["engine", "engine.dispatch"]
        slot[0] += 1
        slot[1] += overhead

    # -- read-out ---------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """Structured totals: per-component and per-nested-path."""
        components = {
            path[1]: {"calls": int(calls), "wall_s": wall}
            for path, (calls, wall) in sorted(self._paths.items())
            if len(path) == 2 and path[0] == "engine"
        }
        hot_spots = {
            ";".join(path): {"calls": int(calls), "wall_s": wall}
            for path, (calls, wall) in sorted(self._paths.items())
            if len(path) > 2 or path[0] == "outside"
        }
        return {
            "runs": self._runs,
            "run_wall_s": self._run_wall,
            "sims_adopted": self._sims_adopted,
            "components": components,
            "hot_spots": hot_spots,
        }

    def collapsed(self) -> str:
        """Collapsed-stack text (``frame;frame weight`` per line, weight
        in integer microseconds) -- FlameGraph-renderer ready.

        Nested hot-spot time is subtracted from its parent frame so the
        flamegraph's self-time semantics hold (children never double
        count against their parent).
        """
        child_wall: Dict[Tuple[str, ...], float] = {}
        for path, (_calls, wall) in self._paths.items():
            if len(path) > 2:
                parent = path[:2]
                child_wall[parent] = child_wall.get(parent, 0.0) + wall
        lines = []
        for path, (_calls, wall) in sorted(self._paths.items()):
            self_wall = wall - child_wall.get(path, 0.0)
            usec = int(round(max(0.0, self_wall) * 1e6))
            if usec > 0:
                lines.append(f"{';'.join(path)} {usec}")
        return "\n".join(lines) + ("\n" if lines else "")


def current() -> Optional[SimProfiler]:
    """The profiler of the innermost :func:`profiling` window, or ``None``."""
    profiler = _probe.armed(_ROLE)
    return profiler if isinstance(profiler, SimProfiler) else None


@contextmanager
def profiling() -> Iterator[SimProfiler]:
    """Arm a fresh :class:`SimProfiler` for the body; restores the
    previous one on exit (nesting replaces, it does not stack)."""
    profiler = SimProfiler()
    previous = _probe.swap(_ROLE, profiler)
    try:
        yield profiler
    finally:
        _probe.swap(_ROLE, previous)


__all__ = [
    "SimProfiler",
    "current",
    "profiling",
]
