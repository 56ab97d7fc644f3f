"""Tests for the parallel experiment executor and the spec protocol.

Covers the executor's contract end to end: cache hit/miss accounting,
byte-identical results at ``jobs=1`` vs ``jobs=N``, retry-after-timeout,
and (property-based) lossless spec round trips.
"""

import dataclasses
import json
import os
import signal
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bulk import BulkDownloadSpec
from repro.experiments.exec import (
    ExperimentError,
    ExperimentExecutor,
    FailedRun,
    ResultCache,
    RunTimeoutError,
)
from repro.experiments.grid import (
    streaming_grid,
    streaming_grid_specs,
    wget_matrix,
    wget_matrix_specs,
)
from repro.experiments.runner import StreamingRunConfig, StreamingSpec
from repro.experiments.spec import (
    SCHEMA_VERSION,
    canonical_json,
    register_experiment,
    run_spec,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
)
from repro.experiments.wild import WildStreamingSpec, run_wild
from repro.net.bandwidth import (
    BandwidthSpec,
    PiecewiseBandwidth,
    RandomBandwidthProcess,
    make_bandwidth_process,
)
from repro.mptcp.connection import ConnectionConfig
from repro.net.profiles import PathConfig, lte_config, wifi_config
from repro.workloads.web import WebBrowsingSpec


def bulk_specs(n=4, size=64 * 1024):
    return [
        BulkDownloadSpec(
            scheduler="ecf",
            path_configs=(wifi_config(2.0), lte_config(float(2 + i))),
            size=size,
            seed=i,
        )
        for i in range(n)
    ]


#: One spec per kind with the content address it had before any ``to_dict``
#: stopped going through ``dataclasses.asdict``.  A wire-form edit that
#: moves one of these orphans every cache entry users already hold: bump
#: ``SCHEMA_VERSION`` on purpose instead.
PINNED_HASHES = [
    (
        BulkDownloadSpec(
            scheduler="ecf",
            path_configs=(wifi_config(2.0), lte_config(8.6, loss_rate=0.01)),
            size=256_000,
            seed=3,
            scheduler_params={"beta": 0.25},
            connection=ConnectionConfig(
                congestion_control="olia", recv_buffer_bytes=1_000_000
            ),
        ),
        "efe19d7213f6764bcd2d725db2bf88b0b4a5d37da97c71d67bc46ef7a2a2eba4",
    ),
    (
        StreamingSpec(
            scheduler="ecf",
            video_duration=30.0,
            seed=5,
            path_configs=(
                PathConfig("wifi", 4.2, 0.01, queue_bytes=50_000, reverse_rate_mbps=1.0),
                lte_config(8.6),
            ),
        ),
        "d4e4aa307c7b3cac789fffe179932219a5d41208b4f4d829d723f22d173f4cf4",
    ),
    (
        WebBrowsingSpec(
            scheduler="minrtt",
            path_configs=(wifi_config(1.0), lte_config(8.6)),
            seed=2,
            object_sizes=(10_000, 250_000),
        ),
        "068fd7be377d68f121bd489a1066c97f91379182c66ff7bed4e706ee6559dfec",
    ),
]


def sweep_specs():
    """Every spec of the two sweep builders, plus the pinned ones (which
    carry an explicit ``connection`` / ``path_configs``)."""
    specs = [spec for _, spec in streaming_grid_specs(StreamingSpec(scheduler="ecf"))]
    specs += [
        spec for _, spec in wget_matrix_specs(("ecf", "minrtt"), (128_000, 1_000_000))
    ]
    return specs + [spec for spec, _ in PINNED_HASHES]


class TestSpecHash:
    @pytest.mark.parametrize(
        "spec, expected", PINNED_HASHES, ids=[spec.kind for spec, _ in PINNED_HASHES]
    )
    def test_content_address_is_pinned(self, spec, expected):
        assert spec_hash(spec) == expected

    def test_wire_form_is_what_asdict_builds(self):
        """``dataclasses.asdict`` is the reference the hand-written
        ``to_dict`` bodies must agree with, field for field."""
        specs = sweep_specs()
        assert len(specs) > 100
        for spec in specs:
            wire = spec.to_dict()
            assert canonical_json(wire) == canonical_json(dataclasses.asdict(spec))
            assert type(spec).from_dict(wire) == spec

    def test_stable_across_instances(self):
        a, b = bulk_specs(1)[0], bulk_specs(1)[0]
        assert a is not b
        assert spec_hash(a) == spec_hash(b)

    def test_differs_by_any_field(self):
        base = bulk_specs(1)[0]
        assert spec_hash(base) != spec_hash(dataclasses.replace(base, seed=99))
        assert spec_hash(base) != spec_hash(dataclasses.replace(base, size=1))

    def test_survives_wire_round_trip(self):
        spec = StreamingSpec(scheduler="ecf", wifi_mbps=1.1, seed=4)
        again = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert again == spec
        assert spec_hash(again) == spec_hash(spec)


class TestCacheBehavior:
    def test_miss_then_hit(self, tmp_path):
        specs = bulk_specs(3)
        first = ExperimentExecutor(cache_dir=tmp_path)
        results = first.run(specs)
        assert first.stats.executed == 3 and first.stats.cached == 0

        second = ExperimentExecutor(cache_dir=tmp_path)
        warm = second.run(specs)
        assert second.stats.executed == 0 and second.stats.cached == 3
        for a, b in zip(results, warm):
            assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())

    def test_partial_campaign_executes_only_missing_cells(self, tmp_path):
        specs = bulk_specs(4)
        ExperimentExecutor(cache_dir=tmp_path).run(specs[:2])
        resumed = ExperimentExecutor(cache_dir=tmp_path)
        resumed.run(specs)
        assert resumed.stats.cached == 2 and resumed.stats.executed == 2

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        spec = bulk_specs(1)[0]
        cache = ResultCache(tmp_path)
        half_written = json.dumps({"schema_version": SCHEMA_VERSION})
        wrong_kind = json.dumps(
            {"schema_version": SCHEMA_VERSION, "kind": "streaming", "result": {}}
        )
        for text in ("{ truncated", half_written, wrong_kind):
            ExperimentExecutor(cache_dir=tmp_path).run([spec])
            cache.path_for(spec_hash(spec)).write_text(text)
            assert text is wrong_kind or cache.get(spec_hash(spec)) is None
            again = ExperimentExecutor(cache_dir=tmp_path)
            again.run([spec])
            assert again.stats.executed == 1, text
            # ...and the rerun healed the entry.
            assert cache.get(spec_hash(spec))["kind"] == "bulk_download"

    @pytest.mark.parametrize("dies_in", ["write_text", "replace"])
    def test_a_failed_put_leaves_no_temp_file(self, tmp_path, monkeypatch, dies_in):
        """A full disk mid-``put``: the error propagates, the entry reads
        as a miss and the shard directory holds nothing."""
        cache = ResultCache(tmp_path)
        key = "ab" + "c" * 62
        payload = {"schema_version": SCHEMA_VERSION, "kind": "bulk_download", "result": {}}

        def write_half(path, text):
            with open(path, "w") as handle:
                handle.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            if dies_in == "write_text":
                patch.setattr(Path, "write_text", write_half)
            else:
                patch.setattr(os, "replace", refuse)
            with pytest.raises(OSError, match="No space left"):
                cache.put(key, payload)
        assert cache.get(key) is None
        assert list(cache.path_for(key).parent.iterdir()) == []
        cache.put(key, payload)  # the disk has room again
        assert cache.get(key) == payload

    @pytest.mark.parametrize("root", [".", "", "/", "rel/dir", "a//b/", "/abs/cache"])
    def test_entry_path_is_the_path_pathlib_would_build(self, root):
        """``entry_path`` joins strings; it must spell every root the way
        ``Path`` does, because the string is what a campaign stores as
        ``result_path`` and ``path_for`` is what callers open."""
        key = "ab" + "c" * 62
        joined = Path(root) / key[:2] / f"{key}.json"
        cache = ResultCache(root)
        assert cache.entry_path(key) == str(joined)
        assert cache.path_for(key) == joined
        assert cache.root == Path(root)

    def test_cache_entry_is_self_describing(self, tmp_path):
        spec = bulk_specs(1)[0]
        ExperimentExecutor(cache_dir=tmp_path).run([spec])
        entry = ResultCache(tmp_path).get(spec_hash(spec))
        assert entry["kind"] == "bulk_download"
        assert entry["spec"] == spec.to_dict()
        assert entry["result"]["completion_time"] > 0


class TestParallelDeterminism:
    def test_jobs1_vs_jobsN_byte_identical(self):
        specs = bulk_specs(5)
        serial = ExperimentExecutor(jobs=1).run(specs)
        parallel = ExperimentExecutor(jobs=3).run(specs)
        for a, b in zip(serial, parallel):
            assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())

    def test_streaming_grid_parallel_matches_serial(self, tmp_path):
        base = StreamingRunConfig(scheduler="minrtt", video_duration=10.0, seed=1)
        serial = streaming_grid(base, (0.7, 8.6), (8.6,))
        executor = ExperimentExecutor(jobs=2, cache_dir=tmp_path)
        parallel = streaming_grid(base, (0.7, 8.6), (8.6,), executor=executor)
        assert executor.stats.executed == 2
        for cell in serial:
            for a, b in zip(serial[cell], parallel[cell]):
                assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())

        warm = ExperimentExecutor(jobs=2, cache_dir=tmp_path)
        streaming_grid(base, (0.7, 8.6), (8.6,), executor=warm)
        assert warm.stats.executed == 0 and warm.stats.cached == 2

    def test_results_in_submission_order(self):
        # Cells with very different runtimes must still come back in order.
        specs = [
            BulkDownloadSpec(
                scheduler="minrtt",
                path_configs=(wifi_config(float(w)), lte_config(8.6)),
                size=256 * 1024,
                seed=0,
            )
            for w in (0.3, 8.6, 1.1)
        ]
        results = ExperimentExecutor(jobs=3).run(specs)
        for spec, result in zip(specs, results):
            assert result.size == spec.size
            assert result.scheduler == spec.scheduler
            assert "wifi" in result.payload_by_path


@dataclasses.dataclass(frozen=True)
class SlowSpec:
    """Test-only spec whose runner wedges until a marker file exists."""

    kind = "test_slow"

    marker: str
    sleep_s: float = 30.0

    def to_dict(self):
        return {"marker": self.marker, "sleep_s": self.sleep_s}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class SlowResult:
    attempts: int

    def to_dict(self):
        return {"attempts": self.attempts}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


def _run_slow(spec: SlowSpec) -> SlowResult:
    """Wedge (sleep) on the first attempt, succeed on the second.

    Attempt counting goes through the filesystem so it also works when
    the executor runs the spec in a pool worker.
    """
    import pathlib

    marker = pathlib.Path(spec.marker)
    if not marker.exists():
        marker.write_text("attempt 1")
        time.sleep(spec.sleep_s)
        return SlowResult(attempts=1)
    return SlowResult(attempts=2)


register_experiment("test_slow", SlowSpec.from_dict, _run_slow, SlowResult.from_dict)


class TestTimeoutAndRetry:
    def test_retry_after_timeout_inline(self, tmp_path):
        spec = SlowSpec(marker=str(tmp_path / "m1"))
        executor = ExperimentExecutor(jobs=1, timeout_s=0.3, retries=1)
        (result,) = executor.run([spec])
        assert result.attempts == 2
        assert executor.stats.retried == 1

    def test_exhausted_retries_raise(self, tmp_path):
        # sleep_s longer than timeout on every attempt: marker never helps
        # because the runner sleeps only on attempt 1 -- so force attempt 1
        # repeatedly by pointing each retry at the same wedged first pass.
        spec = SlowSpec(marker=str(tmp_path / "never"), sleep_s=30.0)

        def always_wedge(s):
            time.sleep(s.sleep_s)
            return SlowResult(attempts=0)

        register_experiment(
            "test_slow", SlowSpec.from_dict, always_wedge, SlowResult.from_dict
        )
        try:
            executor = ExperimentExecutor(jobs=1, timeout_s=0.2, retries=1)
            with pytest.raises(ExperimentError):
                executor.run([spec])
            assert executor.stats.retried == 1
        finally:
            register_experiment(
                "test_slow", SlowSpec.from_dict, _run_slow, SlowResult.from_dict
            )

    def test_timeout_unbounded_by_default(self, tmp_path):
        spec = SlowSpec(marker=str(tmp_path / "m2"), sleep_s=0.05)
        (result,) = ExperimentExecutor(jobs=1).run([spec])
        assert result.attempts == 1  # slept 0.05s and completed, no alarm

    def test_run_timeout_error_is_a_runtime_error(self):
        assert issubclass(RunTimeoutError, RuntimeError)


@dataclasses.dataclass(frozen=True)
class PoisonSpec:
    """Test-only spec whose run SIGKILLs the process it runs in."""

    kind = "test_poison"

    def to_dict(self):
        return {}

    @classmethod
    def from_dict(cls, data):
        return cls()


def _run_poison(spec: PoisonSpec):
    os.kill(os.getpid(), signal.SIGKILL)


register_experiment("test_poison", PoisonSpec.from_dict, _run_poison, SlowResult.from_dict)


class TestWorkerDeath:
    """A killed pool worker breaks every outstanding future; only the
    job that keeps killing its worker may end up failed."""

    @staticmethod
    def _batch():
        specs = bulk_specs(7, size=16 * 1024)
        specs.insert(3, PoisonSpec())
        return specs

    def test_only_the_poison_job_fails(self):
        outcomes = []
        executor = ExperimentExecutor(
            jobs=2, retries=1, keep_going=True, on_look=outcomes.extend
        )
        results = executor.run(self._batch())
        failed = [r for r in results if isinstance(r, FailedRun)]
        assert [(f.kind, f.error_type) for f in failed] == [
            ("test_poison", "BrokenProcessPool")
        ]
        assert results.index(failed[0]) == 3
        assert executor.stats.executed == 7 and executor.stats.failed == 1
        assert sorted(o.index for o in outcomes) == list(range(8))
        (poison,) = [o for o in outcomes if o.status == "failed"]
        assert poison.attempts == 2  # charged against retries=1
        assert 1 <= executor.stats.retried <= 5  # the poison job + its window

    def test_fail_fast_raises_experiment_error(self):
        with pytest.raises(ExperimentError):
            ExperimentExecutor(jobs=2, retries=1).run(self._batch())


path_config_st = st.builds(
    wifi_config,
    rate_mbps=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    loss_rate=st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
)

bandwidth_spec_st = st.one_of(
    st.builds(
        lambda r: PiecewiseBandwidth([(0.0, r)]).to_spec(),
        st.floats(min_value=1e5, max_value=1e8, allow_nan=False),
    ),
    st.builds(
        lambda seed, duration: RandomBandwidthProcess(seed, duration).to_spec(),
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
    ),
)

streaming_spec_st = st.builds(
    StreamingSpec,
    scheduler=st.sampled_from(("minrtt", "ecf", "blest", "daps")),
    wifi_mbps=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    lte_mbps=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    video_duration=st.floats(min_value=5.0, max_value=2000.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31),
    idle_reset_enabled=st.booleans(),
    subflows_per_interface=st.integers(min_value=1, max_value=4),
    wifi_process=st.none() | bandwidth_spec_st,
    path_configs=st.none() | st.tuples(path_config_st, path_config_st),
    record_traces=st.booleans(),
    time_limit=st.none() | st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
)

bulk_spec_st = st.builds(
    BulkDownloadSpec,
    scheduler=st.sampled_from(("minrtt", "ecf")),
    path_configs=st.tuples(path_config_st, path_config_st),
    size=st.integers(min_value=1, max_value=10**8),
    seed=st.integers(min_value=0, max_value=2**31),
    timeout=st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
)

web_spec_st = st.builds(
    WebBrowsingSpec,
    scheduler=st.sampled_from(("minrtt", "ecf")),
    path_configs=st.tuples(path_config_st),
    seed=st.integers(min_value=0, max_value=2**31),
    connections=st.integers(min_value=1, max_value=8),
    object_sizes=st.none()
    | st.tuples(st.integers(min_value=1, max_value=10**6)),
)


class TestSpecRoundTripProperty:
    """from_dict(to_dict(spec)) == spec, across the whole spec space.

    JSON-serialized in between, exactly as the cache and the pool wire
    format do, so tuple/list and int/float fidelity is exercised too.
    """

    @settings(max_examples=60, deadline=None)
    @given(spec=streaming_spec_st)
    def test_streaming_spec_round_trip(self, spec):
        again = StreamingSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert spec_hash(again) == spec_hash(spec)

    @settings(max_examples=60, deadline=None)
    @given(spec=bulk_spec_st)
    def test_bulk_spec_round_trip(self, spec):
        again = BulkDownloadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert spec_hash(again) == spec_hash(spec)

    @settings(max_examples=60, deadline=None)
    @given(spec=web_spec_st)
    def test_web_spec_round_trip(self, spec):
        again = WebBrowsingSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert spec_hash(again) == spec_hash(spec)

    @settings(max_examples=60, deadline=None)
    @given(spec=bandwidth_spec_st)
    def test_bandwidth_spec_round_trip(self, spec):
        again = BandwidthSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        # And the spec constructs a live process of the right shape.
        process = make_bandwidth_process(again)
        assert hasattr(process, "attach")


class TestResultRoundTrip:
    def test_streaming_result_with_traces_and_processes(self):
        spec = StreamingSpec(
            scheduler="ecf",
            wifi_mbps=1.1,
            lte_mbps=8.6,
            video_duration=10.0,
            wifi_process=PiecewiseBandwidth([(0.0, 2e6), (4.0, 6e6)]),
            record_traces=True,
            sample_period=0.5,
        )
        result = run_spec(spec)
        data = json.loads(json.dumps(result.to_dict()))
        again = type(result).from_dict(data)
        assert canonical_json(again.to_dict()) == canonical_json(result.to_dict())
        assert again.trace is not None
        assert again.trace.names() == result.trace.names()
        assert again.config == result.config

    def test_to_dict_is_a_fixed_point_of_the_round_trip(self):
        result = run_spec(StreamingSpec(video_duration=10.0))
        assert type(result).from_dict(result.to_dict()).to_dict() == result.to_dict()

    def test_schema_version_enforced(self):
        spec = StreamingSpec(video_duration=10.0)
        result = run_spec(spec)
        data = result.to_dict()
        data["schema_version"] = 1
        with pytest.raises(ValueError):
            type(result).from_dict(data)

    def test_serialized_form_carries_no_live_objects(self):
        spec = StreamingSpec(video_duration=10.0, record_traces=True)
        data = run_spec(spec).to_dict()
        json.dumps(data)  # would raise on any live object
        assert data["spec"]["scheduler"] == "minrtt"
        assert isinstance(data["trace"], dict)


class TestWildAndMatrixThroughExecutor:
    def test_wild_parallel_matches_serial(self):
        spec = WildStreamingSpec(runs=2, video_duration=10.0)
        serial = run_wild(spec)
        parallel = run_wild(spec, executor=ExperimentExecutor(jobs=2))

        def per_run(result):
            return [
                (run.run_index, run.wifi_config, run.lte_config,
                 {name: canonical_json(r.to_dict()) for name, r in run.results.items()})
                for run in result.runs
            ]

        assert [run[0] for run in per_run(serial)] == [1, 2]
        assert per_run(serial) == per_run(parallel)

    def test_wget_matrix_covers_all_cells(self, tmp_path):
        executor = ExperimentExecutor(jobs=2, cache_dir=tmp_path)
        matrix = wget_matrix(
            ("minrtt", "ecf"), (64 * 1024,), (1.0,), (2.0, 8.0),
            executor=executor,
        )
        assert set(matrix) == {
            (64 * 1024, 1.0, 2.0, "minrtt"),
            (64 * 1024, 1.0, 2.0, "ecf"),
            (64 * 1024, 1.0, 8.0, "minrtt"),
            (64 * 1024, 1.0, 8.0, "ecf"),
        }
        assert executor.stats.executed == 4
        warm = ExperimentExecutor(cache_dir=tmp_path)
        wget_matrix(("minrtt", "ecf"), (64 * 1024,), (1.0,), (2.0, 8.0), executor=warm)
        assert warm.stats.executed == 0 and warm.stats.cached == 4


# ----------------------------------------------------------------------
# The pipeline parity table: one spec -> one outcome, whatever the path
# ----------------------------------------------------------------------

#: case -> (executor knobs, statuses of [innocent bulk job, the case's job],
#: attempts, retried).  The second job is what the case is about.
PIPELINE_CASES = {
    "executed": ({}, ["executed", "executed"], [1, 1], 0),
    "cached": ({}, ["cached", "cached"], [0, 0], 0),
    "timeout_then_success": (
        {"timeout_s": 0.5, "retries": 1}, ["executed", "executed"], [1, 2], 1,
    ),
    "timeout_exhausted": (
        {"timeout_s": 0.5, "retries": 0}, ["executed", "failed"], [1, 1], 0,
    ),
    "error": ({"retries": 1}, ["executed", "failed"], [1, 1], 0),
}


def _pipeline_specs(case, tmp_path):
    from tests.test_service import FlakySpec

    innocent, other = bulk_specs(2, size=16 * 1024)
    if case.startswith("timeout"):
        other = SlowSpec(marker=str(tmp_path / "marker"))
    elif case == "error":
        other = FlakySpec(marker=str(tmp_path / "marker"), succeed_after=99)
    return [innocent, other]


@pytest.mark.parametrize("keep_going", [False, True])
@pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
@pytest.mark.parametrize("jobs", [1, 2])
def test_pipeline_parity(jobs, case, keep_going, tmp_path):
    from repro.obs.journal import read_journal

    knobs, statuses, attempts, retried = PIPELINE_CASES[case]
    specs = _pipeline_specs(case, tmp_path)
    hashes = [spec_hash(spec) for spec in specs]
    cache_dir = tmp_path / "cache"
    if case == "cached":
        ExperimentExecutor(cache_dir=cache_dir).run(specs)
    outcomes, ticks = [], []
    executor = ExperimentExecutor(
        jobs=jobs,
        cache_dir=cache_dir,
        progress=ticks.append,
        journal=tmp_path / "journal.jsonl",
        keep_going=keep_going,
        on_look=outcomes.extend,
        **knobs,
    )
    fails = "failed" in statuses
    if fails and not keep_going:
        with pytest.raises(RuntimeError) as raised:
            executor.run(specs)
        # An exhausted timeout is wrapped; anything else propagates as is.
        wanted = ExperimentError if case == "timeout_exhausted" else RuntimeError
        assert type(raised.value) is wanted
        # Fail-fast may stop before the innocent job resolves.
        assert len(outcomes) <= len(specs)
        assert [o.status for o in outcomes if o.index == 1] == ["failed"]
    else:
        results = executor.run(specs)
        assert sorted(o.index for o in outcomes) == [0, 1]
        by_index = {o.index: o for o in outcomes}
        assert [by_index[i].status for i in (0, 1)] == statuses
        assert [by_index[i].attempts for i in (0, 1)] == attempts
        if fails:
            failed = results[1]
            assert isinstance(failed, FailedRun)
            assert failed.spec_hash == hashes[1] and failed.kind == specs[1].kind
            assert by_index[1].error == {
                "type": failed.error_type, "message": failed.error_message,
            }
        else:
            assert not any(isinstance(r, FailedRun) for r in results)
        assert ticks[-1].done == ticks[-1].total == len(specs)

    # The journal's job records are the outcomes, field for field;
    # error/postmortem appear on failures only.
    records = [r for r in read_journal(tmp_path / "journal.jsonl") if r["record"] == "job"]
    assert len(records) == len(outcomes)
    for record, outcome in zip(records, outcomes):
        assert outcome.spec_hash == hashes[outcome.index]
        assert outcome.kind == specs[outcome.index].kind
        names = ["spec_hash", "kind", "status", "wall_s", "attempts"]
        if outcome.status == "failed":
            names += ["error", "postmortem"]
            timed_out = case.startswith("timeout")
            assert outcome.error["type"] == ("RunTimeoutError" if timed_out else "RuntimeError")
        body = {k: v for k, v in record.items() if k not in ("record", "seq", "wall")}
        assert body == {name: getattr(outcome, name) for name in names}

    # One tick per outcome; the last tick's totals are the stats.
    assert len(ticks) == len(outcomes)
    tally = {status: sum(o.status == status for o in outcomes) for status in
             ("executed", "cached", "failed")}
    last = ticks[-1]
    assert (last.executed, last.cached, last.failed) == tuple(tally.values())
    assert last.retried == executor.stats.retried == retried
    # Under fail-fast the failed job aborts the batch instead of counting as done.
    assert last.done == len(outcomes) - (0 if keep_going else tally["failed"])


# ----------------------------------------------------------------------
# Looks: what ``on_look`` hears, and that a raise loses none of it
# ----------------------------------------------------------------------


def _job_records(path):
    from repro.obs.journal import read_journal

    return [r["spec_hash"] for r in read_journal(path) if r["record"] == "job"]


def test_a_cache_scan_is_delivered_in_slices(tmp_path, monkeypatch):
    from repro.experiments import exec as exec_module

    specs = bulk_specs(5, size=16 * 1024)
    ExperimentExecutor(cache_dir=tmp_path).run(specs)
    monkeypatch.setattr(exec_module, "LOOK_SLICE", 2)
    looks = []
    ExperimentExecutor(cache_dir=tmp_path, on_look=looks.append).run(specs)
    assert [[o.index for o in look] for look in looks] == [[0, 1], [2, 3], [4]]
    assert {o.status for look in looks for o in look} == {"cached"}


def test_a_fail_fast_raise_delivers_the_look_in_flight(tmp_path, whole_window_looks):
    """Fail-fast raises out of the middle of a look: the jobs recorded
    before the failure (journal line, stats) still reach ``on_look``, in
    one list with the failed job last."""
    from tests.test_service import FlakySpec

    # Four jobs on two workers: one window, one look.
    specs = bulk_specs(3, size=16 * 1024)
    specs.append(FlakySpec(marker=str(tmp_path / "marker"), succeed_after=99))
    looks = []
    executor = ExperimentExecutor(
        jobs=2, journal=tmp_path / "journal.jsonl", on_look=looks.append
    )
    with pytest.raises(RuntimeError, match="deliberate failure"):
        executor.run(specs)
    (look,) = looks
    assert [o.spec_hash for o in look] == _job_records(tmp_path / "journal.jsonl")
    assert [o.status for o in look] == ["executed"] * (len(look) - 1) + ["failed"]
    assert executor.stats.executed == len(look) - 1 and executor.stats.failed == 1


def test_a_raising_journal_observer_delivers_the_look_in_flight(tmp_path):
    """The other way out of a look: ``record`` itself raises (here the
    journal's observer, at the third cached job).  The two jobs recorded
    before it are delivered; the third has no outcome."""
    from repro.obs.journal import RunJournal

    specs = bulk_specs(5, size=16 * 1024)
    ExperimentExecutor(cache_dir=tmp_path / "cache").run(specs)

    def die_at_the_third_job(entry):
        if entry["record"] == "job" and entry["spec_hash"] == spec_hash(specs[2]):
            raise RuntimeError("observer died")

    looks = []
    executor = ExperimentExecutor(
        cache_dir=tmp_path / "cache",
        journal=RunJournal(tmp_path / "journal.jsonl", observer=die_at_the_third_job),
        on_look=looks.append,
    )
    with pytest.raises(RuntimeError, match="observer died"):
        executor.run(specs)
    assert [[o.index for o in look] for look in looks] == [[0, 1]]
    assert len(_job_records(tmp_path / "journal.jsonl")) == 3
