"""The benchmark's own checks: determinism of counts, names against
``BENCHMARK.json``, and that the failure and separation checks trip."""

import json
import os
import re
import subprocess
import sys

import pytest

from layers import separation_problems, traced_pass
from workloads import (
    NULL_TRACER,
    WORKLOADS,
    CampaignCold,
    CampaignWarm,
    SimWorkload,
    campaign_specs,
)

from repro.apps.bulk import BulkDownloadSpec
from repro.experiments.exec import ResultCache
from repro.experiments.spec import spec_hash
from repro.net.profiles import lte_config, wifi_config

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


def _small_lossy(seed: int) -> BulkDownloadSpec:
    """``lossy_minrtt_bulk`` in miniature: the seed drives the loss RNG."""
    return BulkDownloadSpec(
        scheduler="minrtt",
        path_configs=(wifi_config(8.6, loss_rate=0.02), lte_config(8.6, loss_rate=0.02)),
        size=1_000_000,
        seed=seed,
    )


def _few_wget_jobs(seed: int) -> list:
    return campaign_specs(seed)[36:42]


def _counts(seed: int, workdir: str) -> dict:
    workload = SimWorkload("small_lossy", _small_lossy)
    metrics, _ = traced_pass(workload, workload.setup(seed, workdir), 1.0)
    exact = ("count", "bytes", "1/segment")
    units = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    return {k: v for k, v in metrics.items() if units[k] in exact}


def test_counts_repeat_for_a_seed_and_differ_between_seeds(tmp_path):
    first = _counts(1, str(tmp_path))
    assert first["sim.engine.events"] > 0
    assert _counts(1, str(tmp_path)) == first
    assert _counts(2, str(tmp_path)) != first


def test_names_are_well_formed_and_declared():
    declared_workloads = [w["name"] for w in CONTRACT["workloads"]]
    assert declared_workloads == list(WORKLOADS)
    names = declared_workloads + [
        m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    ]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(CONTRACT["workloads"]) <= 8
    assert len(CONTRACT["end_to_end"]) <= 16
    assert len(CONTRACT["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line_carries_exactly_the_declared_metrics(trace):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload",
         "fork_sweep", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = CONTRACT["end_to_end"] if trace == 0 else CONTRACT["per_layer"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == 0:
        assert all(cell["value"] > 0 for cell in line["metrics"].values())
    else:
        assert line["metrics"]["bench.separation_ok"]["value"] == 1


def test_an_injected_failing_job_is_counted(tmp_path):
    workload = CampaignCold(_few_wget_jobs)
    state = workload.setup(1, str(tmp_path))
    # A download that cannot finish inside its simulated timeout.
    state.specs.append(
        BulkDownloadSpec(
            scheduler="ecf", path_configs=(wifi_config(1.0),), size=5_000_000,
            seed=1, timeout=0.5,
        )
    )
    outcome = workload.check(state, workload.run(state, NULL_TRACER))
    assert outcome.attempted == 7
    assert outcome.failed == 1


def test_a_truncated_cache_entry_trips_the_separation_check(tmp_path):
    workload = CampaignWarm(_few_wget_jobs)
    state = workload.setup(1, str(tmp_path))
    clean, _ = traced_pass(workload, state, 1.0)
    assert separation_problems({"campaign_warm": clean}) == []

    entry = ResultCache(state.cache_dir).path_for(spec_hash(state.specs[0]))
    entry.write_text(entry.read_text()[:50])  # reads as a miss: re-simulated
    dirty, _ = traced_pass(workload, state, 1.0)
    assert dirty["sim.engine.events"] > 0
    problems = separation_problems({"campaign_warm": dirty})
    assert len(problems) == 1 and "campaign_warm" in problems[0]
    # The re-simulated result is still the right one: not a failed job.
    outcome = workload.check(state, workload.run(state, NULL_TRACER))
    assert outcome.failed == 0
