"""Deliberately broken scheduler variants: seeded violations for the checker.

These exist to prove the checking layer in :mod:`repro.analysis.check`
has teeth: ``python -m repro.cli check --scheduler ecf-nowait`` (or
``ecf-noineq2``) must exit non-zero, and a checker change that stops
flagging them is itself a bug.  Importing this module (as
:mod:`repro.analysis.check` and :mod:`repro.cli` do) registers them in
the scheduler registry under fixture-only names, and nothing else does:
a fresh ``import repro.core`` resolves the shipped schedulers only.
They stay out of ``SCHEDULER_NAMES`` so no experiment sweep ever picks
one up by accident.

All three subclass the real :class:`~repro.core.ecf.EcfScheduler` and
override only its pure :meth:`~repro.core.ecf.EcfScheduler._evaluate` or
:meth:`~repro.core.ecf.EcfScheduler._decision_inputs` step, so decision
logging and the hysteresis state machine -- which live in the
superclass's :meth:`~repro.core.ecf.EcfScheduler.select` -- keep running
and the differential oracle sees every (mis)decision.
"""

from __future__ import annotations

from repro.core.ecf import EcfInputs, EcfScheduler
from repro.core.registry import register_scheduler


class NoWaitEcfScheduler(EcfScheduler):
    """ECF that never waits: Algorithm 1's output is ignored entirely.

    Every decision where the paper mandates waiting becomes a send on
    the slow subflow, so any scenario in which stock ECF waits at least
    once trips both ``ecf-wait-respects-inequality-1`` and the
    differential oracle.
    """

    name = "ecf-nowait"

    def _evaluate(self, inputs: EcfInputs) -> bool:
        return False


class NoSecondInequalityEcfScheduler(EcfScheduler):
    """ECF that skips inequality 2 while claiming to apply it.

    Unlike the honest ``use_second_inequality=False`` ablation, this
    variant *logs* ``use_second_inequality=True``, so the reference
    model expects inequality 2 to gate every wait -- and flags each
    decision where the slow path was fast enough to be worth using.
    """

    name = "ecf-noineq2"

    def _evaluate(self, inputs: EcfInputs) -> bool:
        return inputs.n_rounds * inputs.rtt_f < inputs.threshold


class LateHalvingEcfScheduler(EcfScheduler):
    """ECF applying hysteresis backwards: beta when *not* yet waiting.

    Breaks the threshold equation rather than the decision rule, so it
    is caught by ``ecf-beta-only-when-waiting`` (the logged threshold no
    longer matches ``(1 + waiting*beta)(RTT_s + delta)``) even on runs
    where the final wait/send outcomes happen to coincide with stock.
    """

    name = "ecf-invbeta"

    def _decision_inputs(self, conn, fastest, second):  # type: ignore[no-untyped-def]
        inputs = super()._decision_inputs(conn, fastest, second)
        inverted = (1.0 + (0.0 if self.waiting else self.beta)) * (
            inputs.rtt_s + inputs.delta
        )
        return EcfInputs(
            k_segments=inputs.k_segments,
            rtt_f=inputs.rtt_f,
            rtt_s=inputs.rtt_s,
            cwnd_f=inputs.cwnd_f,
            cwnd_s=inputs.cwnd_s,
            delta=inputs.delta,
            n_rounds=inputs.n_rounds,
            threshold=inverted,
        )


_FIXTURES = (NoWaitEcfScheduler, NoSecondInequalityEcfScheduler, LateHalvingEcfScheduler)

#: Registry names of all seeded-violation fixtures (never in
#: ``SCHEDULER_NAMES``; surfaced by ``repro check --scheduler ...``).
FIXTURE_SCHEDULERS = tuple(cls.name for cls in _FIXTURES)

for _cls in _FIXTURES:
    register_scheduler(_cls.name, _cls)
