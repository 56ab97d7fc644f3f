"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys

import pytest

from repro.core.spec import SchedulerSpec, build
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.link import Link
from repro.net.path import Path
from repro.net.profiles import lte_config, make_path, wifi_config
from repro.sim.engine import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def whole_window_looks(monkeypatch):
    """Every ``wait()`` wake-up of the executor's pool finds its whole
    window (two jobs per worker) finished, so which jobs share a look no
    longer depends on the host's timing."""
    from concurrent.futures import wait

    from repro.experiments import exec as exec_module

    monkeypatch.setattr(exec_module, "wait", lambda futures, return_when: wait(futures))


#: The packages whose classes carry simulation state (what a checkpoint
#: walks); telemetry, the service layer and the analyzers are rebuilt,
#: never snapshotted.
STATE_PACKAGES = ("sim", "tcp", "net", "mptcp", "apps", "core")


@functools.lru_cache(maxsize=None)
def declaring_classes():
    """Qualified name -> class, for every class under ``STATE_PACKAGES``
    whose own ``__dict__`` holds ``STATE_FIELDS``, sorted by name.

    Discovered by importing the packages, so a class that starts
    declaring a snapshot contract is picked up by the coverage and
    ``__slots__`` suites in ``test_snapshot`` without being listed
    anywhere (a cached function, not a fixture: they parametrize over it
    at collection time).
    """
    found = {}
    for name in STATE_PACKAGES:
        package = importlib.import_module(f"repro.{name}")
        modules = [package.__name__] + [
            info.name
            for info in pkgutil.walk_packages(package.__path__, package.__name__ + ".")
        ]
        for module_name in modules:
            for cls in vars(importlib.import_module(module_name)).values():
                if (
                    isinstance(cls, type)
                    and cls.__module__ == module_name
                    and "STATE_FIELDS" in vars(cls)
                ):
                    found[f"{module_name}.{cls.__qualname__}"] = cls
    return dict(sorted(found.items()))


@pytest.fixture(scope="session")
def tree_run():
    """The analyzer run over the installed package, once per session
    (the layering gate reads its import graph)."""
    from repro.analysis.lint import default_lint_root, run_lint

    return run_lint([default_lint_root()])


def python_calls(function) -> int:
    """Python-level ``call`` events while ``function()`` runs (C builtins
    are ``c_call`` and do not count): the cost measure of the budget
    gates, exact for a given interpreter where a wall clock is not."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return calls


def build_path(
    sim: Simulator,
    rate_mbps: float = 10.0,
    one_way_delay: float = 0.01,
    queue_bytes: int = 300_000,
    name: str = "path",
) -> Path:
    """A simple symmetric path for unit tests."""
    forward = Link(sim, rate_mbps * 1e6, one_way_delay, queue_bytes, name=f"{name}-fwd")
    reverse = Link(sim, rate_mbps * 1e6, one_way_delay, queue_bytes, name=f"{name}-rev")
    return Path(name, forward, reverse)


def build_connection(
    sim: Simulator,
    scheduler_name: str = "minrtt",
    path_specs=((10.0, 0.01), (10.0, 0.05)),
    handshake_delays: bool = False,
    **config_kwargs,
) -> MptcpConnection:
    """An MPTCP connection over simple paths; handshakes off by default."""
    paths = [
        build_path(sim, rate_mbps=rate, one_way_delay=delay, name=f"p{i}")
        for i, (rate, delay) in enumerate(path_specs)
    ]
    config = ConnectionConfig(handshake_delays=handshake_delays, **config_kwargs)
    scheduler = build(SchedulerSpec.of(scheduler_name))
    return MptcpConnection(sim, paths, scheduler, config=config)


def drain(sim: Simulator, limit: float = 300.0) -> None:
    """Run the simulation to completion (bounded)."""
    sim.run(until=limit)


@pytest.fixture
def testbed_paths(sim):
    """The paper's testbed profile pair at moderate heterogeneity."""
    return [make_path(sim, wifi_config(1.0)), make_path(sim, lte_config(8.6))]
