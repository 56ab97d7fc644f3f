"""Static analysis, runtime sanitization, and trace-level checking.

Four layers guard the simulator's invariants:

* :mod:`repro.analysis.lint` -- the whole static analyzer: an AST linter
  with simulator-specific rules (wall-clock reads, ad-hoc randomness,
  mutable defaults, float equality on timestamps, unfrozen specs,
  unresolvable registry kinds, package boundaries and the layering,
  out-of-engine event-queue manipulation); one in-memory parse ->
  findings pass per run, nothing kept on disk;
* :mod:`repro.analysis.sanitize` -- runtime invariant checks on the
  state-audit points of the probe seam (:mod:`repro.sim.probe`),
  enabled with ``REPRO_SANITIZE=1`` / ``--sanitize``; the protocol
  layers pay a single ``is None`` test when off;
* :mod:`repro.analysis.events` + :mod:`repro.analysis.check` -- a
  structured event log and a temporal property catalog over it,
  including the :mod:`repro.analysis.reference` differential oracles
  (``REPRO_CHECK=1`` / ``repro check``);
* :mod:`repro.analysis.races` -- an event-order race detector re-running
  scenarios under randomized same-timestamp tie-breaking.

Import each from its module.  The package root imports the sanitizer,
so ``REPRO_SANITIZE=1`` arms on ``import repro``.
"""
