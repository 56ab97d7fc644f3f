"""Backend configs: the frozen value stored with a campaign.

A campaign records *where its work runs* as a small frozen dataclass --
``inline`` (serial, in the draining process: the reference path and the
debugger-friendly one) or ``pool`` (``jobs`` worker processes) -- plus
the per-run ``timeout_s`` and ``retries``.  It serializes into the
campaign store as ``{"kind": "inline" | "pool", ...}``
(:mod:`repro.sim.codec`) and comes back through
:func:`backend_config_from_dict`, so a resumed campaign drains
the way it was submitted.  Nothing is built from a config:
:class:`~repro.service.runner.CampaignRunner` reads its three numbers
and constructs the one engine,
:class:`~repro.experiments.exec.ExperimentExecutor`, itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Mapping, Optional, Union

from repro.sim.codec import Tagged, decode_tagged


class _BackendConfig(Tagged):
    """What both configs check: a retry budget cannot be negative."""

    __slots__ = ()

    retries: int

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries!r}")


@dataclass(frozen=True)
class InlineBackendConfig(_BackendConfig):
    """Serial execution in the submitting process (the reference path)."""

    kind: ClassVar[str] = "inline"
    jobs: ClassVar[int] = 1

    timeout_s: Optional[float] = None
    retries: int = 1


@dataclass(frozen=True)
class PoolBackendConfig(_BackendConfig):
    """Process-pool fan-out across ``jobs`` workers."""

    kind: ClassVar[str] = "pool"

    jobs: int = 2
    timeout_s: Optional[float] = None
    retries: int = 1


BackendConfig = Union[InlineBackendConfig, PoolBackendConfig]
_CONFIGS = {config.kind: config for config in (InlineBackendConfig, PoolBackendConfig)}


def backend_config_from_dict(data: Mapping[str, Any]) -> BackendConfig:
    """Rebuild a frozen backend config from its stored dict form."""
    return decode_tagged("backend", _CONFIGS, data)


__all__ = ["InlineBackendConfig", "PoolBackendConfig", "backend_config_from_dict"]
