"""A cost gate the wall clock cannot blur: Python calls per delivered packet.

Each case runs one fixed spec twice -- once inside a perf collection
window for the number of packets the links delivered, once under
``sys.setprofile`` counting Python-level ``call`` events (C builtins are
``c_call`` and do not count) -- and holds the ratio to a budget.  The
count repeats exactly for a given interpreter, so a per-ACK helper call
added to the ACK -> decision -> send path shows up here even on a box
whose timings swing by a third.  Python 3.12 inlines comprehensions and
only lowers the count.

The unit is the delivered packet, not the dispatched event: it is the
same in every tree, while the number of events per packet is exactly
what an engine change moves.  Measured on 3.11, ecf_hetero /
ecf_eight_subflows / minrtt_hetero / minrtt_single_path_bulk (the world
of the ``bulk_single_path`` benchmark workload, at 4 MB):

* 19.7 / 24.1 / 17.4 / 17.5 -- each per-segment question asked once, by
  the caller that holds the answer: minRTT ranks in one pass
  (``fastest_and_sendable``), a send asks ``can_send()`` once, and idle
  restart, retransmission service, the FACK scan, the una advance and the
  reorder drain are entered only with work to do (budgets below: these
  plus 0.3 -- 0.5);
* 22.7 / 27.1 / 21.9 / 22.7 -- the tree before, which fails these
  budgets;
* 26.2 / 30.9 / 25.4 -- the tree with a serialisation-end event per
  packet (13.0 / 15.4 / 12.6 per event).

Before the single-pass hot path the per-event figures read 28.6 / 45.1 /
21.5.
"""

import pytest

from repro.apps.bulk import BulkDownloadSpec
from repro.experiments.runner import StreamingSpec
from repro.experiments.spec import run_spec
from repro.net.profiles import lte_config
from repro.perf.counters import measure
from repro.sim import probe
from tests.conftest import python_calls

CASES = {
    "ecf_hetero": (
        StreamingSpec(
            scheduler="ecf", wifi_mbps=0.3, lte_mbps=8.6, video_duration=10.0, seed=1
        ),
        20.0,
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
        24.5,
    ),
    "minrtt_hetero": (
        StreamingSpec(
            scheduler="minrtt", wifi_mbps=0.3, lte_mbps=8.6, video_duration=10.0, seed=1
        ),
        18.0,
    ),
    "minrtt_single_path_bulk": (
        BulkDownloadSpec(
            scheduler="minrtt", path_configs=(lte_config(8.6),), size=4_000_000, seed=1
        ),
        18.0,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_calls_per_delivered_packet_within_budget(name):
    if probe.ACTIVE is not None:
        pytest.skip("a tool is armed (REPRO_SANITIZE, ...): its probe calls are not the budgeted path")
    spec, budget = CASES[name]
    _, record = measure(run_spec, spec)
    per_packet = python_calls(lambda: run_spec(spec)) / record.counters.packets_delivered
    assert per_packet <= budget, (
        f"{name}: {per_packet:.1f} Python calls per delivered packet, budget {budget}"
    )
