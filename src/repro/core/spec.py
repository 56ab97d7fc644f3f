"""Config-first construction: frozen specs in, live objects out.

The repo-wide construction idiom (see ``docs/api.md``): anything that
used to be built by a ``make_*(name, **params)`` factory call is instead
described by a small frozen spec dataclass and realized through a single
:func:`build` entry point::

    from repro.core.spec import SchedulerSpec, build

    scheduler = build(SchedulerSpec.of("ecf", beta=0.5))

The spec is a plain value -- JSON-serializable, hashable, comparable
(one :class:`~repro.sim.codec.KindSpec` definition serves every family) --
so it can ride inside experiment specs, cross a process-pool boundary,
key the result cache, and be stored in the campaign database, none of
which a live scheduler object can do.  Each spec family resolves its
``kind`` through its own table (:meth:`~repro.sim.codec.KindSpec.register`,
``kinds``, ``factory``):

=====================================================  ====================
spec                                                   built object
=====================================================  ====================
:class:`SchedulerSpec`                                 :class:`~repro.core.base.Scheduler`
:class:`CcSpec`                                        :class:`~repro.tcp.cc.base.CongestionController`
:class:`~repro.net.bandwidth.BandwidthSpec`            a bandwidth process
=====================================================  ====================

:func:`build` always returns a *fresh* instance: schedulers and
controllers carry per-connection state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.blest import BlestScheduler
from repro.core.daps import DapsScheduler
from repro.core.ecf import EcfScheduler
from repro.core.extras import MpDashScheduler
from repro.core.minrtt import MinRttScheduler
from repro.sim.codec import KindSpec
from repro.tcp.cc.coupled import CoupledController
from repro.tcp.cc.cubic import CubicController
from repro.tcp.cc.olia import OliaController
from repro.tcp.cc.reno import RenoController


@dataclass(frozen=True)
class SchedulerSpec(KindSpec):
    """A named, serializable description of a path scheduler.

    ``kind`` is one of :meth:`SchedulerSpec.kinds`; ``params`` are
    constructor keywords, e.g. ``SchedulerSpec.of("ecf", beta=0.5)``.
    """


@dataclass(frozen=True)
class CcSpec(KindSpec):
    """A named, serializable description of a congestion controller.

    ``kind`` is one of :meth:`CcSpec.kinds` (``"reno"``,
    ``"coupled"``/``"lia"``, ``"olia"``, ``"cubic"``).
    """


#: Canonical user-facing scheduler names.  ("mpdash" additionally needs an
#: :class:`~repro.apps.dash.mpdash.MpDashPathManager` wired to the player;
#: the streaming runner does this automatically.)  ``SchedulerSpec.kinds()``
#: also holds the ``default`` alias and any registered extension, which
#: no sweep enumerates.
SCHEDULER_NAMES = ("minrtt", "ecf", "blest", "daps", "mpdash")

SchedulerSpec.register("minrtt", MinRttScheduler)
SchedulerSpec.register("default", MinRttScheduler)
SchedulerSpec.register("ecf", EcfScheduler)
SchedulerSpec.register("blest", BlestScheduler)
SchedulerSpec.register("daps", DapsScheduler)
SchedulerSpec.register("mpdash", MpDashScheduler)

CcSpec.register("reno", RenoController)
CcSpec.register("coupled", CoupledController)
CcSpec.register("lia", CoupledController)
CcSpec.register("olia", OliaController)
CcSpec.register("cubic", CubicController)


def build(config: KindSpec) -> Any:
    """The single config-first entry point: a frozen spec in, a live object out.

    Looks ``config.kind`` up in its family's table -- :class:`SchedulerSpec`,
    :class:`CcSpec`, or :class:`~repro.net.bandwidth.BandwidthSpec` -- and
    calls the factory with the spec's params.  Always returns a fresh
    instance.

    Raises
    ------
    ValueError
        For a spec whose ``kind`` its family does not resolve.
    TypeError
        For an object that is not a construction spec.
    """
    if not isinstance(config, KindSpec):
        raise TypeError(
            f"cannot build a {type(config).__name__}; expected SchedulerSpec, "
            f"CcSpec, or BandwidthSpec"
        )
    return config.factory(config.kind)(**config.param_dict())
