"""Import what you use: what one import statement loads in a fresh
interpreter (its *import closure*).

Each public name lives in one module.  The four package roots
(``repro``, ``repro.service``, ``repro.experiments``, ``repro.obs``)
resolve theirs on first use (PEP 562), every other ``__init__.py`` holds
a docstring only, and each tool is imported where its switch is read, so

* importing a transport layer runs no tool and no driver: no service,
  executor, telemetry, perf or analyzer module (the sanitizer loads only
  while ``REPRO_SANITIZE`` is on), and neither SQLite nor
  ``multiprocessing``;
* importing the engine runs no snapshot layer, and importing a link no
  topology or bandwidth model;
* importing the CLI, or building its parser, runs no command's library
  and no tool;
* the bench's imports compile no executor, tool, DASH run-time or
  SQLite: a first drain loads the executor, its store SQLite, a first
  streaming session the player; and every name the bench imports from
  ``repro`` still resolves;
* importing the campaign runner does not run the daemon, the checker or
  the perf collector;
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
from repro import cli
from repro.analysis import check, sanitize
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

#: The benchmark's directory; its workload module's ``repro`` imports are
#: what every bench child compiles before it times anything.
BENCH_DIR = PACKAGE_DIR.parent.parent / "bench"
BENCH_WORKLOADS = BENCH_DIR / "workloads.py"

#: Upper layers the transport's closure must not reach.
UPPER = ("repro.service", "repro.experiments", "repro.obs", "repro.perf")

#: Heavy standard-library modules only the service plane and the pool use.
HEAVY = ("sqlite3", "multiprocessing", "concurrent.futures.process")

#: What a drain loads on first use: the executor, its pool machinery and
#: the run journal.
EXECUTOR = ("repro.experiments.exec", "concurrent.futures", "logging", "repro.obs.journal")

#: What a streaming session loads on first use: the DASH run-time, the
#: samplers and the trace recorder.
STREAMING = ("repro.apps.dash.player", "repro.apps.dash.abr", "repro.apps.dash.mpdash",
             "repro.apps.dash.media", "repro.sim.trace", "repro.metrics.collectors")


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


def bench_imports():
    """The module-scope ``repro`` imports of ``bench/workloads.py``."""
    body = ast.parse(BENCH_WORKLOADS.read_text()).body
    return "\n".join(
        ast.unparse(node)
        for node in body
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "repro"
    )


def bench_names():
    """Every ``(module, name)`` of a ``from repro... import name`` in the
    bench and its tests, at module or function scope."""
    sources = sorted(BENCH_DIR.glob("*.py")) + sorted(BENCH_DIR.glob("tests/*.py"))
    return sorted({
        (node.module, alias.name)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "repro"
        for alias in node.names
    })


def test_every_name_the_bench_imports_resolves():
    """The bench is not edited with the package: a name it imports that
    the package drops breaks every bench child, so each must still be an
    attribute of its module."""
    names = bench_names()
    assert ("repro.experiments.twin", "build_world") in names
    assert ("repro.sim.snapshot", "restore") in names
    # As ``from module import name`` resolves it: an attribute, or else
    # a submodule, which importing binds as one.
    unresolved = child(
        "import importlib\n"
        "def resolves(module, name):\n"
        "    if not hasattr(importlib.import_module(module), name):\n"
        "        try:\n"
        "            importlib.import_module(f'{module}.{name}')\n"
        "        except ModuleNotFoundError:\n"
        "            pass\n"
        "    return hasattr(sys.modules[module], name)\n"
        f"names = {names!r}\n"
        "print(json.dumps([f'{m}.{n}' for m, n in names if not resolves(m, n)]))",
        REPRO_SANITIZE="",
    )
    assert unresolved == []


@pytest.mark.parametrize("module", TRANSPORT)
def test_a_transport_layer_loads_no_tool_and_no_driver(module):
    # Set explicitly: a suite run under REPRO_SANITIZE=1 passes it on.
    loaded = closure(f"import {module}", REPRO_SANITIZE="")
    assert module in loaded
    assert [m for package in UPPER for m in under(loaded, package)] == []
    assert under(loaded, "repro.analysis") == []
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


def test_the_parser_loads_no_tool():
    """The tool switches are rows of strings: parsing imports no tool."""
    loaded = closure("from repro.cli import build_parser\nbuild_parser()")
    assert "repro.analysis.check" not in loaded
    assert under(loaded, "repro.obs") == []
    assert under(loaded, "repro.perf") == []


def test_the_bench_import_set_loads_no_executor_tool_or_dash_runtime():
    loaded = closure(bench_imports(), REPRO_SANITIZE="")
    assert "repro.experiments.runner" in loaded
    assert "repro.service.store" in loaded
    assert [m for m in EXECUTOR + STREAMING if m in loaded] == []
    assert "repro.experiments.ideal" not in loaded
    assert under(loaded, "repro.obs") == []
    assert under(loaded, "repro.analysis") == []
    # A store imports SQLite when it opens: no bench child that runs a
    # simulation pays for it.
    assert [m for m in HEAVY if m in loaded] == []


def test_a_first_drain_loads_the_executor_and_a_first_session_the_player(tmp_path):
    after_drain, after_session = child(
        f"{bench_imports()}\n"
        "from repro.apps.bulk import BulkDownloadSpec\n"
        "from repro.experiments.runner import StreamingSpec, run_streaming\n"
        "from repro.net.profiles import lte_config, wifi_config\n"
        "from repro.service.runner import CampaignRunner\n"
        "from repro.service.store import CampaignStore\n"
        f"store = CampaignStore({str(tmp_path / 'c.db')!r})\n"
        f"runner = CampaignRunner(store, 'c', cache_dir={str(tmp_path / 'cache')!r})\n"
        "runner.run([BulkDownloadSpec(scheduler='ecf', "
        "path_configs=(wifi_config(1.0), lte_config(8.6)), size=20_000)])\n"
        "after_drain = sorted(sys.modules)\n"
        "run_streaming(StreamingSpec(scheduler='ecf', video_duration=5.0))\n"
        "print(json.dumps([after_drain, sorted(sys.modules)]))",
        REPRO_SANITIZE="",
    )
    assert [m for m in EXECUTOR if m not in after_drain] == []
    assert "sqlite3" in after_drain
    assert [m for m in STREAMING if m in after_drain] == []
    assert [m for m in STREAMING if m not in after_session] == []


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
    for module in ("repro.service.daemon", "repro.analysis.check"):
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


def test_the_cli_names_the_tools_own_switches():
    rows = {flag: env_var for flag, env_var, _, _ in cli._tool_switches()}
    assert rows == {
        "--sanitize": sanitize.ENV_VAR,
        "--check": check.ENV_VAR,
        "--perf": counters.ENV_VAR,
        "--obs": flight.ENV_VAR,
        "--obs-dir": flight.DIR_ENV_VAR,
    }


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
