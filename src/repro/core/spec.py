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
which a live scheduler object can do.  :func:`build` dispatches on the
spec type:

=====================================================  ====================
spec                                                   built object
=====================================================  ====================
:class:`SchedulerSpec`                                 :class:`~repro.core.base.Scheduler`
:class:`CcSpec`                                        :class:`~repro.tcp.cc.CongestionController`
:class:`~repro.net.bandwidth.BandwidthSpec`            a bandwidth process
=====================================================  ====================

Like every registry here, :func:`build` always returns a *fresh*
instance: schedulers and controllers carry per-connection state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.base import Scheduler
from repro.core import registry as _registry
from repro.sim.codec import KindSpec


@dataclass(frozen=True)
class SchedulerSpec(KindSpec):
    """A named, serializable description of a path scheduler.

    ``kind`` resolves against the scheduler registry
    (:func:`repro.core.registry.registered_schedulers`); ``params`` are
    constructor keywords, e.g. ``SchedulerSpec.of("ecf", beta=0.5)``.
    """


@dataclass(frozen=True)
class CcSpec(KindSpec):
    """A named, serializable description of a congestion controller.

    ``kind`` resolves against :func:`repro.tcp.cc.registered_controllers`
    (``"reno"``, ``"coupled"``/``"lia"``, ``"olia"``, ``"cubic"``).
    """


def _build_scheduler(spec: SchedulerSpec) -> Scheduler:
    try:
        factory = _registry._FACTORIES[spec.kind.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {spec.kind!r}; "
            f"choose from {sorted(_registry.registered_schedulers())}"
        ) from None
    return factory(**spec.param_dict())


def _build_controller(spec: CcSpec) -> Any:
    # Imported lazily: repro.core must not depend on repro.tcp at import
    # time (the dependency runs the other way for event emission).
    from repro.tcp.cc import build_controller

    return build_controller(spec.kind, **spec.param_dict())


def build(config: Any) -> Any:
    """The single config-first entry point: a frozen spec in, a live object out.

    Dispatches on the spec type -- :class:`SchedulerSpec`,
    :class:`CcSpec`, or :class:`~repro.net.bandwidth.BandwidthSpec`.
    Always returns a fresh instance.

    Raises
    ------
    ValueError
        For a spec whose ``kind`` its registry does not resolve.
    TypeError
        For an object that is not a recognized construction spec.
    """
    if isinstance(config, SchedulerSpec):
        return _build_scheduler(config)
    if isinstance(config, CcSpec):
        return _build_controller(config)
    # The remaining spec families live in heavier modules; import them
    # only when such a config actually shows up.
    from repro.net.bandwidth import BandwidthSpec, make_bandwidth_process

    if isinstance(config, BandwidthSpec):
        return make_bandwidth_process(config)
    raise TypeError(
        f"cannot build a {type(config).__name__}; expected SchedulerSpec, "
        f"CcSpec, or BandwidthSpec"
    )
