"""Scheduler registry: construct a fresh scheduler instance by name.

Schedulers carry per-connection state (ECF's hysteresis flag, DAPS's
schedule), so the registry always returns a *new* instance.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet

from repro.core.base import Scheduler
from repro.core.blest import BlestScheduler
from repro.core.daps import DapsScheduler
from repro.core.ecf import EcfScheduler
from repro.core.extras import (
    MpDashScheduler,
    PrimaryOnlyScheduler,
    RedundantScheduler,
    RoundRobinScheduler,
)
from repro.core.minrtt import MinRttScheduler


_FACTORIES: Dict[str, Callable[..., Scheduler]] = {
    "minrtt": MinRttScheduler,
    "default": MinRttScheduler,
    "ecf": EcfScheduler,
    "blest": BlestScheduler,
    "daps": DapsScheduler,
    "roundrobin": RoundRobinScheduler,
    "redundant": RedundantScheduler,
    "primary": PrimaryOnlyScheduler,
    "mpdash": MpDashScheduler,
}

#: Canonical user-facing scheduler names.  ("mpdash" additionally needs an
#: :class:`~repro.apps.dash.mpdash.MpDashPathManager` wired to the player;
#: the streaming runner does this automatically.)
SCHEDULER_NAMES = (
    "minrtt", "ecf", "blest", "daps", "roundrobin", "redundant", "primary",
    "mpdash",
)


def registered_schedulers() -> FrozenSet[str]:
    """Every name ``build(SchedulerSpec.of(name))`` resolves.

    Includes names added with :func:`register_scheduler` (the
    seeded-violation fixtures of the checking layer among them);
    ``SCHEDULER_NAMES`` is the user-facing subset sweeps enumerate.
    """
    return frozenset(_FACTORIES)


def register_scheduler(name: str, factory: Callable[..., Scheduler]) -> None:
    """Make ``build(SchedulerSpec.of(name, **params))`` call ``factory``.

    ``factory`` receives the spec's params as keyword arguments and must
    return a fresh scheduler.  Registered names resolve by name but stay
    out of ``SCHEDULER_NAMES``, so no sweep enumerates them.
    """
    _FACTORIES[name.lower()] = factory
