"""Event-order race detector: re-run scenarios under shuffled tie-breaks.

The invariant it checks: results do not depend on the order in which
same-instant events were scheduled; an instant's events run in
owner-construction order.  The engine orders its heap by ``(time, owner
rank, seq)`` (see :mod:`repro.sim.engine`), so two ACKs that reach two
subflows in the same instant, or two access hops that deliver into one
shared queue in the same instant, are served in the order their owners
were built -- never in the order a refactor happened to call
``schedule()``.  What the rank cannot order is one owner's own
same-instant events; code that depends on their order is a latent race.

This module re-executes a scenario several times under
:func:`repro.sim.engine.forced_tie_break` with different shuffle seeds --
which permute exactly the events whose time and owner rank are equal --
and demands the summary metrics stay **byte-identical** (compared as
canonical JSON of ``result.to_dict()``).  ``repro check`` runs it on
every scenario of its matrix: single-connection DASH and bulk, DASH over
four subflows per interface, and the six-connection web page whose
connections share links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.experiments.spec import canonical_json
from repro.sim import engine


@dataclass(frozen=True)
class RaceFinding:
    """One randomized order whose result diverged from the baseline."""

    seed: int
    fields: List[str]

    def __str__(self) -> str:  # pragma: no cover - message formatting
        return (
            f"tie-break seed {self.seed} changed result fields: "
            f"{', '.join(self.fields) or '<structure>'}"
        )


@dataclass
class RaceReport:
    """Outcome of one scenario's tie-break randomization sweep."""

    orders: int = 0
    findings: List[RaceFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def format(self) -> str:
        if self.ok:
            return f"byte-identical across {self.orders} randomized tie-break orders"
        lines = [
            f"{len(self.findings)}/{self.orders} randomized orders diverged "
            "(event-order race):"
        ]
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)


def _diff_fields(baseline: str, candidate: str) -> List[str]:
    """Top-level result keys whose values differ between two runs."""
    import json

    a, b = json.loads(baseline), json.loads(candidate)
    if not isinstance(a, dict) or not isinstance(b, dict):
        return []
    return sorted(
        key for key in set(a) | set(b) if a.get(key) != b.get(key)
    )


def race_check(
    run: Callable[[Any], Any],
    spec: Any,
    orders: int = 5,
    seeds: Optional[List[int]] = None,
) -> RaceReport:
    """Assert ``run(spec)`` is independent of same-timestamp event order.

    Runs the scenario once under the default FIFO tie-break as baseline,
    then ``orders`` more times under seeded random tie-breaks, comparing
    canonical-JSON serializations of the results.  ``run`` must be a
    pure spec runner (it builds its own ``Simulator`` internally -- the
    forced tie-break context reaches it through the engine module).
    """
    if orders < 1:
        raise ValueError(f"orders must be >= 1, got {orders!r}")
    if seeds is None:
        seeds = list(range(1, orders + 1))
    elif len(seeds) != orders:
        raise ValueError(f"need exactly {orders} seeds, got {len(seeds)}")
    baseline = canonical_json(run(spec).to_dict())
    report = RaceReport(orders=orders)
    for seed in seeds:
        with engine.forced_tie_break("random", seed):
            candidate = canonical_json(run(spec).to_dict())
        if candidate != baseline:
            report.findings.append(
                RaceFinding(seed=seed, fields=_diff_fields(baseline, candidate))
            )
    return report
