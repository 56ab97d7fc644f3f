"""A cost gate the wall clock cannot blur: calls per delivered packet.

Each case runs one fixed spec twice -- once inside a perf collection
window for the number of packets the links delivered, once under
``sys.setprofile`` counting Python-level ``call`` events and C-level
``c_call`` events (builtins such as ``min`` or ``len``, and C methods
such as ``deque.append``) -- and holds both ratios to a budget.  The
counts repeat exactly for a given interpreter, so a per-ACK helper call
added to the ACK -> decision -> send path shows up here even on a box
whose timings swing by a third.  A two-number ``min()`` costs ten times
the comparison it performs, so a C call is no free lunch either.  Python
3.12 inlines comprehensions and only lowers the Python count; 3.10, 3.11
and 3.12 read the same C count.

The unit is the delivered packet, not the dispatched event: it is the
same in every tree, while the number of events per packet is exactly
what an engine change moves.  Measured on 3.11, ecf_hetero /
ecf_eight_subflows / minrtt_hetero / minrtt_single_path_bulk (the world
of the ``bulk_single_path`` benchmark workload, at 4 MB), Python calls
then C calls:

* 17.2 / 18.0 / 15.9 / 16.5 and 13.5 / 13.6 / 11.9 / 11.8 -- compare,
  don't call: every two-number ``min`` / ``max`` / ``abs`` on the
  per-segment path is a comparison on locals, the congestion
  controller's one-ACK ``range`` loop is gone and a link tests its FIFO
  for emptiness instead of calling ``len`` (budgets below: these plus
  0.3 -- 0.4; the Python count did not move, so neither did its budget);
* 17.2 / 18.0 / 15.9 / 16.5 and 18.7 / 18.4 / 16.8 / 17.0 -- Algorithm 1
  on locals: the ranking tests sendability without a ``can_send()`` call
  per subflow, and an ECF decision reads its inputs off the subflows
  once, into a named tuple, inside ``select``;
* 19.7 / 24.1 / 17.4 / 17.5 (Python) -- each per-segment question asked
  once, by the caller that holds the answer: minRTT ranks in one pass
  (``fastest_and_sendable``), a send asks ``can_send()`` once, and idle
  restart, retransmission service, the FACK scan, the una advance and the
  reorder drain are entered only with work to do;
* 22.7 / 27.1 / 21.9 / 22.7 (Python) -- the tree before that;
* 26.2 / 30.9 / 25.4 (Python) -- the tree with a serialisation-end event
  per packet (13.0 / 15.4 / 12.6 per event).

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
from tests.conftest import call_counts

#: name -> (spec, Python calls per packet, C calls per packet).
CASES = {
    "ecf_hetero": (
        StreamingSpec(
            scheduler="ecf", wifi_mbps=0.3, lte_mbps=8.6, video_duration=10.0, seed=1
        ),
        17.6,
        13.9,
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
        18.3,
        14.0,
    ),
    "minrtt_hetero": (
        StreamingSpec(
            scheduler="minrtt", wifi_mbps=0.3, lte_mbps=8.6, video_duration=10.0, seed=1
        ),
        16.3,
        12.2,
    ),
    "minrtt_single_path_bulk": (
        BulkDownloadSpec(
            scheduler="minrtt", path_configs=(lte_config(8.6),), size=4_000_000, seed=1
        ),
        16.9,
        12.1,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_calls_per_delivered_packet_within_budget(name):
    if probe.ACTIVE is not None:
        pytest.skip("a tool is armed (REPRO_SANITIZE, ...): its probe calls are not the budgeted path")
    spec, python_budget, c_budget = CASES[name]
    _, record = measure(run_spec, spec)
    packets = record.counters.packets_delivered
    calls = call_counts(lambda: run_spec(spec))
    python, c = calls.python / packets, calls.c / packets
    assert python <= python_budget, (
        f"{name}: {python:.1f} Python calls per delivered packet, budget {python_budget}"
    )
    assert c <= c_budget, f"{name}: {c:.1f} C calls per delivered packet, budget {c_budget}"
