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

from repro.service.backends import (
    InlineBackendConfig,
    PoolBackendConfig,
    backend_config_from_dict,
)
from repro.service.daemon import (
    CampaignDaemon,
    render_watch_line,
    status_document,
)
from repro.service.runner import CampaignError, CampaignRunner
from repro.service.store import CampaignRow, CampaignStore, JobRow, TransitionError

__all__ = [
    "CampaignStore",
    "CampaignRunner",
    "CampaignDaemon",
    "CampaignError",
    "render_watch_line",
    "status_document",
    "CampaignRow",
    "JobRow",
    "TransitionError",
    "InlineBackendConfig",
    "PoolBackendConfig",
    "backend_config_from_dict",
]
