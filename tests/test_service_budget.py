"""A scaling gate the wall clock cannot blur: what a cached job costs.

The warm path of a campaign (submit -> drain -> fetch with every result
already in the cache) is all bookkeeping: spec hashing, cache reads, SQL
and the journal.  Its cost per job must not depend on how many jobs the
campaign, or the cache, holds.  As in ``tests/test_hot_path_budget.py``
the gate counts instead of timing: Python-level ``call`` events under
``sys.setprofile`` (they repeat exactly for a given interpreter), the
directory listings the drain performs, and the ``COMMIT`` statements
SQLite executes.

Measured on 3.11: 78.8 / 73.7 calls per cached job at 50 / 100 jobs
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

import os
import pathlib
import re

import pytest

from repro.experiments.exec import ExperimentExecutor, ResultCache
from repro.experiments.grid import wget_matrix_specs
from repro.experiments.spec import spec_hash
from repro.service import (
    CampaignRunner,
    CampaignStore,
    InlineBackendConfig,
    PoolBackendConfig,
)
from tests.conftest import call_counts

GRID_MBPS = (1.0, 3.0, 5.0, 7.0, 9.0)

#: Python calls one cached job may cost across submit, drain and fetch.
CALLS_PER_CACHED_JOB = 90


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

    half, full = warm_campaign(specs[:50]), warm_campaign(specs)
    assert half / 50 <= CALLS_PER_CACHED_JOB, f"{half / 50:.0f} calls per cached job"
    assert full / 100 <= CALLS_PER_CACHED_JOB, f"{full / 100:.0f} calls per cached job"
    assert full / half <= 2.1, f"twice the jobs cost {full / half:.2f}x the calls"


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
