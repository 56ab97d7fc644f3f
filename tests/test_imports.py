"""Import what you use: what one import statement loads in a fresh
interpreter (its *import closure*).

Each public name lives in one module.  The four package roots
(``repro``, ``repro.service``, ``repro.experiments``, ``repro.obs``)
resolve theirs on first use (PEP 562), every other ``__init__.py`` holds
a docstring only, and each tool is imported where its switch is read, so

* importing a transport layer runs no tool and no driver: no service,
  executor, telemetry or perf module, no analyzer but the sanitizer, and
  neither SQLite nor ``multiprocessing``;
* importing the engine runs no snapshot layer, and importing a link no
  topology or bandwidth model;
* importing the CLI runs no command's library;
* importing the campaign runner does not run the daemon, the telemetry
  registry, the checker or the perf collector;
* every root name resolves to its home module's object, and
  ``REPRO_SANITIZE=1`` still arms the sanitizer for any ``import repro.*``.

Each closure is read in a child interpreter: this process has imported
everything long ago.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments
import repro.obs
import repro.service
from repro.analysis import check
from repro.experiments import exec as exec_module
from repro.obs import flight
from repro.perf import counters

#: The transport core: what a simulation needs and nothing above it, each
#: layer as its (docstring-only) package and as its home module.
TRANSPORT = (
    "repro.sim.engine",
    "repro.net", "repro.net.link",
    "repro.tcp", "repro.tcp.subflow",
    "repro.mptcp", "repro.mptcp.connection",
    "repro.core", "repro.core.spec",
)

#: The packages whose ``__init__`` binds names: the lazy roots.
ROOTS = ("repro", "repro.service", "repro.experiments", "repro.obs")

PACKAGE_DIR = Path(repro.__file__).parent

#: Upper layers the transport's closure must not reach.
UPPER = ("repro.service", "repro.experiments", "repro.obs", "repro.perf")

#: Heavy standard-library modules only the service plane and the pool use.
HEAVY = ("sqlite3", "multiprocessing", "concurrent.futures.process")


def child(source, **env):
    """Run ``source`` in a fresh interpreter; the JSON value it prints last."""
    out = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{source}"],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, **env},
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def closure(statement, **env):
    """The modules loaded after ``statement`` runs in a fresh interpreter."""
    return set(child(f"{statement}\nprint(json.dumps(sorted(sys.modules)))", **env))


def under(modules, package):
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


@pytest.mark.parametrize("module", TRANSPORT)
def test_a_transport_layer_loads_no_tool_and_no_driver(module):
    loaded = closure(f"import {module}")
    assert module in loaded
    assert [m for package in UPPER for m in under(loaded, package)] == []
    assert under(loaded, "repro.analysis") == ["repro.analysis", "repro.analysis.sanitize"]
    assert [m for m in HEAVY if m in loaded] == []


def test_the_engine_loads_no_snapshot_trace_rng_or_hashing():
    loaded = closure("import repro.sim.engine")
    for module in ("repro.sim.snapshot", "repro.sim.trace", "repro.sim.rng", "hashlib", "inspect"):
        assert module not in loaded


def test_a_link_loads_no_topology_or_bandwidth_model():
    loaded = closure("import repro.net.link")
    for module in ("repro.net.topology", "repro.net.bandwidth", "repro.net.profiles"):
        assert module not in loaded


def test_the_cli_loads_no_command_library():
    """``build_parser`` needs argparse and the scheduler names; each
    command imports its own library when it runs."""
    loaded = closure("import repro.cli")
    heavy = ("repro.experiments", "repro.service", "repro.apps", "repro.workloads",
             "repro.obs", "repro.perf", "repro.metrics")
    assert [m for package in heavy for m in under(loaded, package)] == []
    assert [m for m in ("sqlite3", "multiprocessing") if m in loaded] == []


def test_only_the_roots_bind_names():
    """Every other ``__init__.py`` is a docstring, so a re-export layer
    cannot grow back unnoticed."""
    for init in sorted(PACKAGE_DIR.rglob("__init__.py")):
        package = ".".join(init.relative_to(PACKAGE_DIR.parent).parent.parts)
        if package in ROOTS:
            continue
        body = ast.parse(init.read_text()).body
        assert len(body) == 1 and isinstance(body[0], ast.Expr), package
        assert isinstance(body[0].value, ast.Constant), package
        assert isinstance(body[0].value.value, str), package


def test_the_campaign_runner_loads_no_daemon_registry_checker_or_perf():
    loaded = closure("import repro.service.runner")
    assert "repro.service.runner" in loaded
    for module in ("repro.service.daemon", "repro.obs.registry", "repro.analysis.check"):
        assert module not in loaded
    assert under(loaded, "repro.perf") == []


def test_a_sweep_with_every_switch_off_imports_no_tool():
    """The executor imports the checker, the perf collector and the
    flight recorder only where their switches read on."""
    loaded = closure(
        "from repro.apps.bulk import BulkDownloadSpec\n"
        "from repro.experiments.exec import ExperimentExecutor\n"
        "from repro.net.profiles import lte_config, wifi_config\n"
        "ExperimentExecutor().run([BulkDownloadSpec(scheduler='ecf', "
        "path_configs=(wifi_config(1.0), lte_config(8.6)), size=20_000)])",
        REPRO_CHECK="0", REPRO_PERF="0", REPRO_OBS="0",
    )
    assert "repro.experiments.exec" in loaded
    for module in ("repro.analysis.check", "repro.analysis.events", "repro.obs.flight"):
        assert module not in loaded
    assert under(loaded, "repro.perf") == []
    assert [m for m in HEAVY[1:] if m in loaded] == []


def test_the_executor_reads_the_tools_own_switches():
    assert exec_module._CHECK == check.ENV_VAR
    assert exec_module._PERF == counters.ENV_VAR
    assert exec_module._OBS == flight.ENV_VAR


def test_the_sanitizer_arms_on_a_transport_import():
    armed = child(
        "import repro.sim.engine\n"
        "print(json.dumps(sys.modules['repro.analysis.sanitize'].enabled()))",
        REPRO_SANITIZE="1",
    )
    assert armed is True


class TestSchedulerRegistry:
    """The seeded-violation fixtures are registered by importing their
    module, never as a side effect of importing the package."""

    def test_a_fresh_core_registers_the_shipped_schedulers_only(self):
        fresh, added, fixtures, shipped = child(
            "from repro.core.spec import SCHEDULER_NAMES, SchedulerSpec\n"
            "fresh = SchedulerSpec.kinds()\n"
            "from repro.analysis.fixtures import FIXTURE_SCHEDULERS\n"
            "added = SchedulerSpec.kinds() - fresh\n"
            "print(json.dumps([sorted(fresh), sorted(added), "
            "sorted(FIXTURE_SCHEDULERS), sorted(SCHEDULER_NAMES)]))"
        )
        # ``default`` is the table's alias of ``minrtt``, not a scheduler.
        assert set(fresh) == set(shipped) | {"default"}
        assert added == fixtures


class TestPublicNames:
    """Every root name resolves to the object its home module defines."""

    @pytest.mark.parametrize("package", [repro, repro.service, repro.experiments, repro.obs])
    def test_every_public_name_resolves(self, package):
        names = [name for name in package.__all__ if name != "__version__"]
        assert names, package.__name__
        for name in names:
            value = getattr(package, name)
            home = sys.modules[f"{package.__name__}.{package._HOME[name]}"]
            assert value is getattr(home, name), name
            assert name in dir(package)

    def test_star_import_binds_the_whole_surface(self):
        scope = {}
        exec("from repro import *", scope)
        assert set(repro.__all__) <= set(scope)

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            repro.Nope
        assert not hasattr(repro.service, "Nope")
