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

from repro.core import (
    BlestScheduler,
    CcSpec,
    DapsScheduler,
    EcfScheduler,
    MinRttScheduler,
    SCHEDULER_NAMES,
    Scheduler,
    SchedulerSpec,
    build,
    registered_schedulers,
)
from repro.mptcp import ConnectionConfig, MptcpConnection, MptcpReceiver
from repro.net import Path, make_path, lte_config, wifi_config
from repro.service import (
    CampaignRunner,
    CampaignStore,
    InlineBackendConfig,
    PoolBackendConfig,
)
from repro.sim import Simulator, TraceRecorder

# The transport core imports no tool, so the package root imports the
# sanitizer: REPRO_SANITIZE=1 must arm it for any ``import repro.*``.
from repro.analysis import sanitize as _sanitize  # noqa: F401

__version__ = "1.1.0"

#: The supported public surface.  Everything importable from here is
#: stable API; underscore-prefixed names anywhere in the package are
#: package-private (enforced by lint rule RPR701).
__all__ = [
    # simulation substrate
    "Simulator",
    "TraceRecorder",
    # schedulers + config-first construction
    "Scheduler",
    "EcfScheduler",
    "MinRttScheduler",
    "BlestScheduler",
    "DapsScheduler",
    "SchedulerSpec",
    "CcSpec",
    "build",
    "SCHEDULER_NAMES",
    "registered_schedulers",
    # MPTCP connection
    "MptcpConnection",
    "ConnectionConfig",
    "MptcpReceiver",
    # paths
    "Path",
    "make_path",
    "wifi_config",
    "lte_config",
    # campaign service
    "CampaignStore",
    "CampaignRunner",
    "InlineBackendConfig",
    "PoolBackendConfig",
    "__version__",
]
