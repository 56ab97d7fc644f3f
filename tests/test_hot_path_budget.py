"""A cost gate the wall clock cannot blur: Python calls per simulated event.

Each case runs one fixed 10 s-video spec twice -- once inside a perf
collection window for the number of dispatched events, once under
``sys.setprofile`` counting Python-level ``call`` events (C builtins are
``c_call`` and do not count) -- and holds the ratio to a budget.  The
count repeats exactly for a given interpreter, so a per-ACK helper call
added to the ACK -> decision -> send path shows up here even on a box
whose timings swing by a third.  Python 3.12 inlines comprehensions and
only lowers the count.

Budgets are the measured values (13.0 / 15.4 / 12.6 on 3.11; the tree
before the single-pass hot path read 28.6 / 45.1 / 21.5) plus room for
interpreter differences, not for new calls.
"""

import pytest

from repro.experiments.runner import StreamingSpec
from repro.experiments.spec import run_spec
from repro.perf.counters import measure
from repro.sim import probe
from tests.conftest import python_calls

CASES = {
    "ecf_hetero": (
        StreamingSpec(
            scheduler="ecf", wifi_mbps=0.3, lte_mbps=8.6, video_duration=10.0, seed=1
        ),
        14.0,
    ),
    "ecf_eight_subflows": (
        StreamingSpec(
            scheduler="ecf",
            wifi_mbps=4.2,
            lte_mbps=8.6,
            video_duration=10.0,
            subflows_per_interface=4,
            seed=1,
        ),
        17.0,
    ),
    "minrtt_hetero": (
        StreamingSpec(
            scheduler="minrtt", wifi_mbps=0.3, lte_mbps=8.6, video_duration=10.0, seed=1
        ),
        14.0,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_calls_per_event_within_budget(name):
    if probe.ACTIVE is not None:
        pytest.skip("a tool is armed (REPRO_SANITIZE, ...): its probe calls are not the budgeted path")
    spec, budget = CASES[name]
    _, record = measure(run_spec, spec)
    per_event = python_calls(lambda: run_spec(spec)) / record.events
    assert per_event <= budget, (
        f"{name}: {per_event:.1f} Python calls per dispatched event, budget {budget}"
    )
