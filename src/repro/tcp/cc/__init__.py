"""Congestion controllers.

The paper notes the heterogeneity pathology appears "regardless of the
congestion controller used (e.g., Olia)", so the library provides the three
controllers an MPTCP 0.89 deployment would realistically run:

* :class:`~repro.tcp.cc.reno.RenoController` -- uncoupled per-subflow Reno.
* :class:`~repro.tcp.cc.coupled.CoupledController` -- the "coupled"/LIA
  controller of RFC 6356 (Wischik et al.), the MPTCP default.
* :class:`~repro.tcp.cc.olia.OliaController` -- OLIA (Khalili et al.).

Controllers are connection-scoped objects: coupled variants read the CWNDs
of every subflow in the connection when computing an increase.
"""

from repro.tcp.cc.base import CongestionController
from repro.tcp.cc.reno import RenoController
from repro.tcp.cc.coupled import CoupledController
from repro.tcp.cc.cubic import CubicController
from repro.tcp.cc.olia import OliaController

_CONTROLLERS = {
    "reno": RenoController,
    "coupled": CoupledController,
    "lia": CoupledController,
    "olia": OliaController,
    "cubic": CubicController,
}

#: Canonical controller names (aliases included), for registry-aware
#: tooling such as ``repro.analysis.lint``.
CONTROLLER_NAMES = tuple(sorted(_CONTROLLERS))


def registered_controllers() -> frozenset:
    """Every name ``build(CcSpec.of(name))`` resolves (aliases included)."""
    return frozenset(_CONTROLLERS)


def build_controller(name: str, **params) -> CongestionController:
    """Instantiate a controller by kind name, passing constructor params.

    The registry entry point behind ``build(CcSpec.of(name, **params))``
    (:mod:`repro.core.spec`); always returns a fresh instance because
    coupled controllers keep connection-scoped state.
    """
    try:
        cls = _CONTROLLERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown congestion controller {name!r}; "
            f"choose from {sorted(set(_CONTROLLERS))}"
        ) from None
    return cls(**params)


__all__ = [
    "CONTROLLER_NAMES",
    "CongestionController",
    "RenoController",
    "CoupledController",
    "OliaController",
    "CubicController",
    "build_controller",
    "registered_controllers",
]
