"""Static analysis, runtime sanitization, and trace-level checking.

Four layers guard the simulator's invariants:

* :mod:`repro.analysis.lint` -- an AST linter with simulator-specific
  rules (wall-clock reads, ad-hoc randomness, mutable defaults, float
  equality on timestamps, unfrozen specs, unresolvable registry kinds,
  out-of-engine event-queue manipulation), fronting the module import
  graph of :mod:`repro.analysis.flow`; one in-memory parse -> findings
  pass per run, nothing kept on disk;
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

Only the sanitizer is imported eagerly (the package root imports it so
``REPRO_SANITIZE=1`` arms on ``import repro``); the heavier layers load
on first use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.sanitize import SanitizerError, disable, enable, enabled

if TYPE_CHECKING:  # pragma: no cover - typing-only re-exports
    from repro.analysis.lint import (
        RULES,
        LintRun,
        Violation,
        lint_paths,
        lint_source,
        run_lint,
    )

__all__ = [
    "SanitizerError",
    "enable",
    "disable",
    "enabled",
    "RULES",
    "Violation",
    "LintRun",
    "lint_paths",
    "lint_source",
    "run_lint",
]

_LINT_EXPORTS = (
    "RULES",
    "Violation",
    "LintRun",
    "lint_paths",
    "lint_source",
    "run_lint",
)


def __getattr__(name: str):
    if name in _LINT_EXPORTS:
        from repro.analysis import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
