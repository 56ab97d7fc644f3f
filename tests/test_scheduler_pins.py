"""Every registered scheduler, and every congestion controller on the
recovery path, pinned to one result digest.

The seven goldens of ``tests/test_perf.py`` run ECF and minRTT only, and
no random loss.  These pins cover what else shares the per-segment path:

* the headline cell (WiFi 0.3 / LTE 8.6 Mbps, DASH, 10 s video, seed 1)
  under each of ``SCHEDULER_NAMES``;
* a two-path minRTT bulk of 2 MB at 2 % loss on both paths (fast
  retransmit, RTO, reinjection, reordered reassembly) under each of
  ``reno``, ``coupled``, ``olia`` and ``cubic``.  Coupled and OLIA read
  one digest here: at 2 MB and 2 % loss the windows barely leave
  recovery, so their increases never differ.  OLIA's congestion
  avoidance is the ``bulk_olia`` golden's.

A digest is the sha256 of the result's canonical JSON, as for the
goldens.  Like them, a pin moves only with a named correctness reason.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.bulk import BulkDownloadSpec
from repro.core.registry import SCHEDULER_NAMES
from repro.experiments.runner import StreamingSpec
from repro.experiments.spec import canonical_json, run_spec
from repro.mptcp.connection import ConnectionConfig
from repro.net.profiles import lte_config, wifi_config

CONTROLLERS = ("reno", "coupled", "olia", "cubic")

CASES = {
    **{
        f"dash_{name}": StreamingSpec(
            scheduler=name, wifi_mbps=0.3, lte_mbps=8.6, video_duration=10.0, seed=1
        )
        for name in SCHEDULER_NAMES
    },
    **{
        f"lossy_bulk_{cc}": BulkDownloadSpec(
            scheduler="minrtt",
            path_configs=(wifi_config(8.6, loss_rate=0.02), lte_config(8.6, loss_rate=0.02)),
            size=2_000_000,
            seed=1,
            connection=ConnectionConfig(congestion_control=cc),
        )
        for cc in CONTROLLERS
    },
}


def digest(spec) -> str:
    return hashlib.sha256(canonical_json(run_spec(spec).to_dict()).encode()).hexdigest()


@pytest.fixture(scope="module")
def pins():
    return json.loads((Path(__file__).parent / "data" / "scheduler_digests.json").read_text())


def test_every_case_has_a_pin(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_matches_its_pin(pins, name):
    assert digest(CASES[name]) == pins[name], f"{name}: result moved off its pin"
