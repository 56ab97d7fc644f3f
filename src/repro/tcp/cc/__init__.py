"""Congestion controllers.

The paper notes the heterogeneity pathology appears "regardless of the
congestion controller used (e.g., Olia)", so the library provides the three
controllers an MPTCP 0.89 deployment would realistically run:

* :class:`~repro.tcp.cc.reno.RenoController` -- uncoupled per-subflow Reno.
* :class:`~repro.tcp.cc.coupled.CoupledController` -- the "coupled"/LIA
  controller of RFC 6356 (Wischik et al.), the MPTCP default.
* :class:`~repro.tcp.cc.olia.OliaController` -- OLIA (Khalili et al.).
* :class:`~repro.tcp.cc.cubic.CubicController` -- CUBIC (RFC 8312).

Controllers are connection-scoped objects: coupled variants read the CWNDs
of every subflow in the connection when computing an increase.  Each is
imported from its module; ``build(CcSpec.of(kind))`` (:mod:`repro.core.spec`)
builds one by name.
"""
