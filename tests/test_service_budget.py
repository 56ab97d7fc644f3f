"""A scaling gate the wall clock cannot blur: what a cached job costs.

The warm path of a campaign (submit -> drain -> fetch with every result
already in the cache) is all bookkeeping: spec hashing, cache reads, SQL
and the journal.  Its cost per job must not depend on how many jobs the
campaign, or the cache, holds.  As in ``tests/test_hot_path_budget.py``
the gate counts instead of timing: Python-level ``call`` events under
``sys.setprofile`` (they repeat exactly for a given interpreter), the
directory listings the drain performs, and the ``COMMIT`` statements
SQLite executes.

Measured on 3.11: 49.4 / 47.7 calls per cached job at 50 / 100 jobs
(2,471 / 4,770 calls), with the codec's plans built before counting and
a cache entry's header and body decoded before ``json.loads`` reads them
(55.3 / 50.7, read the same way, while the 50-job reading carried the
backend config's one-time codec planning and ``json.loads`` sniffed the
encoding of the ``bytes`` it was given, ``json.detect_encoding``, three
calls a job; that tree was first recorded as 57.9 / 52.7, 3.10: 57.5 /
52.7, 3.12: 57.6 / 52.1), with a look booked as one statement per table
and a submitted spec encoded once (78.8 / 73.7
while every claim, ``done`` move and journal-index row was its own
statement, ``mark_done`` read its row before moving it, the index
re-encoded the line the journal had just written and ``add_jobs``
encoded each spec twice, once to store it and once to hash it; the
same 78.8 / 73.7 with cache entries carrying their float lists as packed
doubles: a bulk entry packs nothing, and its header's digest, which now
covers the header too, is still one sha256 over bytes (a first cut that
re-encoded the packed paths to hash them read 90.8 / 85.7, over budget)
(80.8 / 75.7 while the store reported every claim and ``mark_done`` to
a transition hook nothing read; 103.8 / 98.7 while the drain decoded every pending row's spec, rebuilt
it as a typed spec, re-encoded it and hashed it, only to recompute the
key the row already held; 104.8 / 99.7 while the drain parsed every
cached result, and rebuilt it, before ``fetch`` parsed it again; 120.6 /
118.8 while every finished job was its own ``transaction()`` scope,
every journal record its own ``open`` and every fetched job its own
``store.job()`` row with a spec to parse; 173 / 172 while a cache
entry's path was three ``pathlib`` joins and a ``Path.read_text`` per
job). The tree that probed the cache with ``if self.cache`` (a
``__len__`` that globbed the whole cache directory once per spec) read
1,229 / 1,868 and issued 3 N + 2 commits.
"""

import functools
import gc
import json
import math
import os
import pathlib
import re
import tempfile
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.exec import ExperimentExecutor, ResultCache
from repro.experiments.grid import wget_matrix_specs
from repro.experiments.runner import StreamingSpec
from repro.experiments.spec import canonical_json, result_from_dict, run_spec, spec_hash
from repro.workloads.web import WebBrowsingResult
from repro.service import (
    CampaignRunner,
    CampaignStore,
    InlineBackendConfig,
    PoolBackendConfig,
)
from tests.conftest import call_counts

GRID_MBPS = (1.0, 3.0, 5.0, 7.0, 9.0)

#: Python calls one cached job may cost across submit, drain and fetch:
#: the 100-job reading on 3.11 plus 10 %.
CALLS_PER_CACHED_JOB = 58


def wget_specs():
    specs = [
        spec
        for _, spec in wget_matrix_specs(
            ("ecf", "minrtt"), (16_000, 32_000), GRID_MBPS, GRID_MBPS
        )
    ]
    assert len(specs) == 100
    return specs


def campaign(store, cache, journal, backend=InlineBackendConfig()):
    return CampaignRunner(store, "budget", backend=backend, cache_dir=cache, journal=journal)


def test_cached_job_cost_does_not_grow_with_the_campaign(tmp_path):
    specs = wget_specs()
    cache = tmp_path / "cache"

    def warm_campaign(batch):
        """Populate the cache up to ``batch``, then count one warm
        submit -> drain -> fetch over it: cache and campaign grow together,
        as they do for a sweep user."""
        ExperimentExecutor(cache_dir=cache).run(batch)

        def pipeline():
            with CampaignStore(":memory:") as store:
                runner = campaign(store, cache, tmp_path / f"journal-{len(batch)}.jsonl")
                runner.submit(batch)
                counts = runner.drain()
                assert counts["done"] == len(batch)
                assert len(runner.fetch(batch)) == len(batch)

        return call_counts(pipeline).python

    # A codec plan is built once per class per process (the backend
    # config's on the first submit), and the first store to open imports
    # SQLite: do both before counting, so neither reading bills one-time
    # work to its jobs.
    InlineBackendConfig().to_dict()
    CampaignStore(":memory:").close()
    half, full = warm_campaign(specs[:50]), warm_campaign(specs)
    assert half / 50 <= CALLS_PER_CACHED_JOB, f"{half / 50:.0f} calls per cached job"
    assert full / 100 <= CALLS_PER_CACHED_JOB, f"{full / 100:.0f} calls per cached job"
    assert full / half <= 2.1, f"twice the jobs cost {full / half:.2f}x the calls"


class CountingConnection:
    """A proxy on a store's ``_conn`` that counts the calls into SQLite."""

    def __init__(self, conn):
        self.conn = conn
        self.calls = 0

    def execute(self, *args):
        self.calls += 1
        return self.conn.execute(*args)

    def executemany(self, *args):
        self.calls += 1
        return self.conn.executemany(*args)

    def __getattr__(self, name):
        return getattr(self.conn, name)


def test_sqlite_calls_do_not_grow_with_a_warm_look(tmp_path):
    """A look is one statement per table: a warm submit -> drain -> fetch
    of 100 jobs (one look) makes as many ``execute``/``executemany``
    calls as one of 50."""
    specs = wget_specs()
    cache = tmp_path / "cache"
    ExperimentExecutor(cache_dir=cache).run(specs)

    def calls(batch):
        with CampaignStore(":memory:") as store:
            runner = campaign(store, cache, tmp_path / f"journal-{len(batch)}.jsonl")
            proxy = store._conn = CountingConnection(store._conn)
            runner.submit(batch)
            assert runner.drain()["done"] == len(batch)
            assert len(runner.fetch(batch)) == len(batch)
            store._conn = proxy.conn
            return proxy.calls

    half, full = calls(specs[:50]), calls(specs)
    assert half == full, (half, full)


def test_a_warm_drain_lists_no_directory(tmp_path, monkeypatch):
    specs = wget_specs()[:20]
    cache = tmp_path / "cache"
    ExperimentExecutor(cache_dir=cache).run(specs)
    with CampaignStore(":memory:") as store:
        runner = campaign(store, cache, tmp_path / "journal.jsonl")
        runner.submit(specs)

        def refuse(*args, **kwargs):
            raise AssertionError("the drain listed a directory")

        with monkeypatch.context() as patch:
            # Both: pathlib binds ``scandir`` at import on 3.10.
            patch.setattr(pathlib.Path, "glob", refuse)
            patch.setattr(os, "scandir", refuse)
            counts = runner.drain()
        assert counts["done"] == len(specs)


def test_a_warm_drain_parses_no_cache_entry(tmp_path, monkeypatch):
    """A drain checks each hit by its digest (``ResultCache.verify``);
    ``fetch`` is the one reader that parses, once per job."""
    specs = wget_specs()[:20]
    cache = tmp_path / "cache"
    ExperimentExecutor(cache_dir=cache).run(specs)
    with CampaignStore(":memory:") as store:
        runner = campaign(store, cache, tmp_path / "journal.jsonl")
        runner.submit(specs)

        def refuse(self, key):
            raise AssertionError("the drain parsed a cache entry")

        with monkeypatch.context() as patch:
            patch.setattr(ResultCache, "get", refuse)
            counts = runner.drain()
        assert counts["done"] == len(specs)

        parsed = []
        get = ResultCache.get

        def count(self, key):
            parsed.append(key)
            return get(self, key)

        with monkeypatch.context() as patch:
            patch.setattr(ResultCache, "get", count)
            assert len(runner.fetch(specs)) == len(specs)
        assert sorted(parsed) == sorted(spec_hash(spec) for spec in specs)


def test_a_warm_drain_decodes_no_spec(tmp_path, monkeypatch):
    """A drain names every job by the key its store row holds: over a
    warm cache it decodes, re-encodes and hashes no spec."""
    from repro.experiments import exec as exec_module
    from repro.experiments import spec as spec_module
    from repro.service import runner as runner_module

    specs = wget_specs()[:20]
    cache = tmp_path / "cache"
    ExperimentExecutor(cache_dir=cache).run(specs)
    with CampaignStore(":memory:") as store:
        runner = campaign(store, cache, tmp_path / "journal.jsonl")
        runner.submit(specs)

        def refuse(*args, **kwargs):
            raise AssertionError("the drain decoded, encoded or hashed a spec")

        with monkeypatch.context() as patch:
            for module in (spec_module, exec_module, runner_module):
                for name in ("spec_from_dict", "spec_to_dict", "wire_hash", "spec_hash"):
                    if hasattr(module, name):
                        patch.setattr(module, name, refuse)
            counts = runner.drain()
        assert counts["done"] == len(specs)


def test_a_cold_drain_reads_its_specs_in_one_query(tmp_path):
    """Only the misses' specs are read, all in one query: the SELECTs that
    read the ``spec`` column do not grow with the campaign."""

    def reads_spec(statement):
        columns = statement.split(" FROM ")[0]
        return statement.startswith("SELECT") and re.search(r"\bspec\b|SELECT \*", columns)

    for n in (4, 8):
        specs = wget_specs()[:n]
        with CampaignStore(tmp_path / f"campaign-{n}.db") as store:
            runner = campaign(store, tmp_path / f"cache-{n}", None)
            runner.submit(specs)
            statements = []
            store._conn.set_trace_callback(statements.append)
            counts = runner.drain()
            store._conn.set_trace_callback(None)
        assert counts["done"] == n
        read = [s for s in statements if reads_spec(s)]
        assert len(read) == 1 and "json_each" in read[0], read


#: What a drain commits besides its looks: the claim batch, and the
#: ``batch_start`` and ``batch_end`` journal-index rows.
COMMITS_BESIDE_THE_LOOKS = 3


@pytest.mark.parametrize(
    "warm, backend, lowest, highest",
    [
        # Every job a cache hit: 20 <= LOOK_SLICE, the scan is one look.
        (True, InlineBackendConfig(), 1, 1),
        # Inline, a look is one finished job.
        (False, InlineBackendConfig(), 20, 20),
        # On the pool, a look is whatever one ``wait()`` found finished.
        (False, PoolBackendConfig(jobs=2), 1, 20),
    ],
    ids=["cached", "inline", "pool"],
)
def test_a_look_is_one_commit(tmp_path, warm, backend, lowest, highest):
    specs = wget_specs()[:20]
    cache = tmp_path / "cache"
    if warm:
        ExperimentExecutor(cache_dir=cache).run(specs)
    with CampaignStore(tmp_path / "campaign.db") as store:
        runner = campaign(store, cache, tmp_path / "journal.jsonl", backend)
        runner.submit(specs)
        statements = []
        store._conn.set_trace_callback(statements.append)
        counts = runner.drain()
        store._conn.set_trace_callback(None)
    assert counts["done"] == len(specs)
    looks = statements.count("COMMIT") - COMMITS_BESIDE_THE_LOOKS
    assert lowest <= looks <= highest, looks


def test_a_cache_has_no_truth_value_to_compute():
    """The trap itself: ``if cache:`` on a type with ``__len__`` walks the
    directory.  ``is not None`` is the only test a cache supports."""
    assert not hasattr(ResultCache, "__len__")
    assert not hasattr(ResultCache, "__bool__")


#: Bytes a fetched result may hold per out-of-order delay sample: an
#: ``array("d")`` holds 8 (a list of fresh float objects held 32).
BYTES_PER_DELAY_SAMPLE = 9


@functools.lru_cache(maxsize=None)
def streaming_payload():
    """One short streaming run's wire form, as the cache stores it."""
    spec = StreamingSpec(scheduler="ecf", wifi_mbps=1.1, lte_mbps=8.6, video_duration=10.0)
    return spec, run_spec(spec).to_dict()


def test_a_fetched_delay_series_holds_eight_bytes_a_sample(tmp_path):
    """Counted with ``tracemalloc``, which repeats exactly: what the
    fetched result holds for its ``ooo_delays``, the difference between
    the result with its series and with an empty one."""
    spec, _payload = streaming_payload()
    ExperimentExecutor(cache_dir=tmp_path).run([spec])
    gc.collect()
    tracemalloc.start()
    try:
        (result,) = ExperimentExecutor(cache_dir=tmp_path).run([spec])
        gc.collect()
        with_series = tracemalloc.get_traced_memory()[0]
        samples = len(result.ooo_delays)
        result.ooo_delays = array("d")
        gc.collect()
        held = with_series - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert samples > 500
    assert held / samples <= BYTES_PER_DELAY_SAMPLE, held / samples


#: Bytes in flight per byte of text while :func:`canonical_json` writes a
#: result with a long series: the text, its pieces and one piece's
#: encoder work.  Read with ``tracemalloc`` at 30,000 samples: 2.02 /
#: 2.01 / 2.01 on 3.10 / 3.11 / 3.12; the one-shot encoder read 6.56 on
#: 3.10 and 3.11 (8.4 on the headline cell's result), whose C encoder
#: keeps one ``str`` per item until the end of a list, and 1.05 on 3.12.
TEXT_BYTES_IN_FLIGHT = 2.5


def test_a_canonical_text_holds_few_copies_of_itself_in_flight():
    """The identity of a 30,000-sample result (the streaming run's
    series, cycled) costs about two texts to write, not eight."""
    payload = streaming_payload()[1]
    delays = payload["ooo_delays"]
    payload = {**payload, "ooo_delays": [delays[i % len(delays)] for i in range(30_000)]}
    gc.collect()
    tracemalloc.start()
    try:
        text = canonical_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert peak / len(text) <= TEXT_BYTES_IN_FLIGHT, peak / len(text)


#: Delay samples packing and the zero-sharing ``to_dict`` must carry bit
#: for bit: both zeros, NaN, both infinities, subnormals, extremes.
edge_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, 1.7976931348623157e308]
)


@settings(max_examples=80, deadline=None)
@given(delays=st.lists(edge_floats, max_size=40), kind=st.sampled_from(["streaming", "web_browsing"]))
def test_a_delay_series_survives_put_get_from_dict_to_dict(delays, kind):
    """``put`` -> ``get`` -> ``from_dict`` -> ``to_dict`` gives the text
    the result had, whatever floats its series holds."""
    if kind == "streaming":
        result = {**streaming_payload()[1], "ooo_delays": delays}
    else:
        result = WebBrowsingResult(scheduler="ecf", ooo_delays=delays).to_dict()
    text = canonical_json(result)
    key = "ab" + "c" * 62
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        cache.put(key, {"schema_version": result["schema_version"], "kind": kind, "result": result})
        fetched = result_from_dict(kind, cache.get(key)["result"])
    assert isinstance(fetched.ooo_delays, array)
    assert canonical_json(fetched.to_dict()) == text
