"""Simulation-as-a-service: durable, resumable sweep campaigns.

The service layer promotes :class:`~repro.experiments.exec.ExperimentExecutor`
from a per-process pool into a campaign service:

* :mod:`repro.service.store` -- a SQLite-backed store of campaigns and
  jobs (keyed by spec hash, moving pending -> running -> done/failed,
  with journal and postmortem indexes);
* :mod:`repro.service.backends` -- the frozen ``*BackendConfig`` value
  stored with a campaign (inline or pool, timeout, retries);
* :mod:`repro.service.runner` -- the submit / drain / requeue / fetch
  loop, which drives the executor directly and is also usable as an
  executor drop-in for the grid sweeps;
* :mod:`repro.service.daemon` -- the long-lived ``campaign serve``
  daemon: a drain loop plus an OpenMetrics/JSON scrape endpoint fed by
  the :mod:`repro.obs.registry` registry.

See ``docs/architecture.md`` ("Campaign service") and
``repro.cli campaign`` for the command-line surface.
"""

import importlib
from typing import Any, List

#: Each public name with the module it lives in.  ``__getattr__`` imports
#: it on first use, so ``import repro.service.runner`` runs neither the
#: daemon nor the telemetry registry.
_HOME = {
    "CampaignStore": "store",
    "CampaignRunner": "runner",
    "CampaignDaemon": "daemon",
    "CampaignError": "runner",
    "status_document": "daemon",
    "CampaignRow": "store",
    "JobRow": "store",
    "TransitionError": "store",
    "InlineBackendConfig": "backends",
    "PoolBackendConfig": "backends",
    "backend_config_from_dict": "backends",
}

__all__ = [*_HOME]


def __getattr__(name: str) -> Any:
    """Import a public name's module on first use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *__all__})
