"""repro -- reproduction of "ECF: An MPTCP Path Scheduler to Manage
Heterogeneous Paths" (Lim, Nahum, Towsley, Gibbens; CoNEXT 2017).

The package is a packet-level discrete-event simulation of MPTCP complete
enough to regenerate every figure and table in the paper's evaluation:
per-subflow TCP with coupled congestion control, the MPTCP meta-socket
with opportunistic retransmission/penalization, the ECF / default(minRTT)
/ BLEST / DAPS path schedulers, a DASH adaptive-streaming stack, and
wget/Web-browsing workloads.

Construction is config-first (see ``docs/api.md``): describe what you
want with a frozen spec, realize it with :func:`build`.

Quickstart
----------
>>> from repro import Simulator, SchedulerSpec, build, MptcpConnection
>>> from repro import make_path, wifi_config, lte_config
>>> sim = Simulator()
>>> paths = [make_path(sim, wifi_config(1.0)), make_path(sim, lte_config(8.6))]
>>> conn = MptcpConnection(sim, paths, build(SchedulerSpec.of("ecf")))
>>> conn.write(500_000)
>>> sim.run(until=30.0)  # doctest: +SKIP
>>> conn.delivered_bytes  # doctest: +SKIP
500000
"""

import importlib
from typing import Any, List

from repro.sim import probe as _probe

# The transport core imports no tool, so the package root imports the
# sanitizer: REPRO_SANITIZE=1 must arm it for any ``import repro.*``.
# It reads the switch the sanitizer reads at import; switched off, the
# module stays unloaded until ``sanitize.enable()`` (``cli --sanitize``).
if _probe.env_on("REPRO_SANITIZE"):
    from repro.analysis import sanitize as _sanitize  # noqa: F401

__version__ = "1.1.0"

#: The supported public surface, each name with the module that defines
#: it.  Everything importable from here is stable API; underscore-prefixed
#: names anywhere in the package are package-private (enforced by lint
#: rule RPR701).
_HOME = {
    # simulation substrate
    "Simulator": "sim.engine",
    "TraceRecorder": "sim.trace",
    # schedulers + config-first construction
    "Scheduler": "core.base",
    "EcfScheduler": "core.ecf",
    "MinRttScheduler": "core.minrtt",
    "BlestScheduler": "core.blest",
    "DapsScheduler": "core.daps",
    "SchedulerSpec": "core.spec",
    "CcSpec": "core.spec",
    "build": "core.spec",
    "SCHEDULER_NAMES": "core.spec",
    # MPTCP connection
    "MptcpConnection": "mptcp.connection",
    "ConnectionConfig": "mptcp.connection",
    "MptcpReceiver": "mptcp.receiver",
    # paths
    "Path": "net.path",
    "make_path": "net.profiles",
    "wifi_config": "net.profiles",
    "lte_config": "net.profiles",
    # campaign service
    "CampaignStore": "service.store",
    "CampaignRunner": "service.runner",
    "InlineBackendConfig": "service.backends",
    "PoolBackendConfig": "service.backends",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str) -> Any:
    """Import a public name's module on first use (PEP 562, as
    ``concurrent.futures`` does for ``ProcessPoolExecutor``): importing
    one layer, say ``repro.sim.engine``, runs none of the layers above."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *__all__})
