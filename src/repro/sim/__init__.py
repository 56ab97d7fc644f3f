"""Discrete-event simulation engine.

This package provides the substrate every other subsystem runs on:

* :class:`~repro.sim.engine.Simulator` -- a heap-based event loop with a
  simulated clock and cancellable timers.
* :class:`~repro.sim.rng.RngRegistry` -- named, independently seeded random
  streams so experiments are reproducible event-order-independently.
* :class:`~repro.sim.trace.TraceRecorder` -- lightweight named time-series
  collection used for CWND traces, send-buffer occupancy, etc.
* :mod:`repro.sim.snapshot` -- checkpoint/fork of a live simulation
  (:func:`~repro.sim.snapshot.capture` / ``restore`` / ``fork``).
* :mod:`repro.sim.codec` -- the one wire codec every spec, result,
  kind-spec and event record serializes through.

Each name is imported from its module, so a transport module's ``from
repro.sim import probe`` runs neither the snapshot layer nor the trace
recorder.
"""
