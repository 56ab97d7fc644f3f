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
>>> from repro.net import make_path, wifi_config, lte_config
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

# The transport core imports no tool, so the package root imports the
# sanitizer: REPRO_SANITIZE=1 must arm it for any ``import repro.*``.
from repro.analysis import sanitize as _sanitize  # noqa: F401

__version__ = "1.1.0"

#: The supported public surface, each name with the subpackage it lives
#: in.  Everything importable from here is stable API; underscore-prefixed
#: names anywhere in the package are package-private (enforced by lint
#: rule RPR701).
_HOME = {
    # simulation substrate
    "Simulator": "sim",
    "TraceRecorder": "sim",
    # schedulers + config-first construction
    "Scheduler": "core",
    "EcfScheduler": "core",
    "MinRttScheduler": "core",
    "BlestScheduler": "core",
    "DapsScheduler": "core",
    "SchedulerSpec": "core",
    "CcSpec": "core",
    "build": "core",
    "SCHEDULER_NAMES": "core",
    "registered_schedulers": "core",
    # MPTCP connection
    "MptcpConnection": "mptcp",
    "ConnectionConfig": "mptcp",
    "MptcpReceiver": "mptcp",
    # paths
    "Path": "net",
    "make_path": "net",
    "wifi_config": "net",
    "lte_config": "net",
    # campaign service
    "CampaignStore": "service",
    "CampaignRunner": "service",
    "InlineBackendConfig": "service",
    "PoolBackendConfig": "service",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str) -> Any:
    """Import a public name's subpackage on first use (PEP 562, as
    ``concurrent.futures`` does for ``ProcessPoolExecutor``): importing
    one layer, say ``repro.sim.engine``, runs none of the layers above."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *__all__})
