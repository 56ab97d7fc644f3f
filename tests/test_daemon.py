"""Tests for the campaign daemon (repro.service.daemon) and the
executor -> store -> registry telemetry plumbing it rides on."""

import json
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.apps.bulk import BulkDownloadSpec
from repro.experiments.runner import StreamingSpec
from repro.net.profiles import lte_config, wifi_config
from repro.obs.journal import read_journal
from repro.obs.registry import (
    CATALOG,
    PERF_COUNTER_FIELDS,
    MetricRegistry,
    publish_perf_counters,
    validate_openmetrics,
)
from repro.service import (
    CampaignRunner,
    CampaignStore,
    InlineBackendConfig,
    PoolBackendConfig,
)
from repro.service.daemon import (
    REQUEST_TIMEOUT_S,
    CampaignDaemon,
    fetch_metrics,
    status_document,
)


def fetch_status(endpoint):
    """GET ``<endpoint>/status`` and parse it."""
    with urllib.request.urlopen(endpoint + "/status", timeout=5) as response:
        return json.loads(response.read().decode())


def bulk_specs(n=3, size=48 * 1024):
    return [
        BulkDownloadSpec(
            scheduler="ecf",
            path_configs=(wifi_config(2.0), lte_config(float(2 + i))),
            size=size,
            seed=i,
        )
        for i in range(n)
    ]


class TestStatusDocument:
    def test_unknown_campaign_raises(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            with pytest.raises(KeyError):
                status_document(store, "nope")

    def test_counts_and_shape(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(
                store, "doc", cache_dir=tmp_path / "cache",
                journal=tmp_path / "j.jsonl",
            )
            runner.submit(bulk_specs(2))
            doc = status_document(store, "doc")
            assert doc["campaign"] == "doc"
            assert doc["total"] == 2
            assert doc["remaining"] == 2
            assert doc["counts"]["pending"] == 2
            assert doc["done_fraction"] == 0.0
            runner.drain()
            doc = status_document(store, "doc")
            assert doc["counts"]["done"] == 2
            assert doc["remaining"] == 0
            assert doc["done_fraction"] == 1.0
            assert doc["journal_jobs"] == {"executed": 2}
            assert doc["cache_hit_rate"] == 0.0

    def test_cache_hits_reflected(self, tmp_path):
        specs = bulk_specs(2)
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(
                store, "doc", cache_dir=tmp_path / "cache",
                journal=tmp_path / "j.jsonl",
            )
            runner.submit(specs)
            runner.drain()
        # A fresh campaign over the same cache resolves every job as a
        # cache hit and journals it as "cached".
        with CampaignStore(tmp_path / "c.db") as store:
            fresh = CampaignRunner(
                store, "doc2", cache_dir=tmp_path / "cache",
                journal=tmp_path / "j2.jsonl",
            )
            fresh.submit(specs)
            fresh.drain()
            doc = status_document(store, "doc2")
            assert doc["journal_jobs"] == {"cached": 2}
            assert doc["cache_hit_rate"] == 1.0

    def test_journal_figures_are_sql_aggregates(self, tmp_path, monkeypatch):
        """A drained mixed campaign (one cached, two executed, one failed,
        plus a retry and a status-less job row): the document's journal
        figures equal the ones computed in Python from ``journal_records``,
        and neither ``status_document`` nor ``refresh`` parses a row."""
        cache, specs = tmp_path / "cache", bulk_specs(3)
        doomed = BulkDownloadSpec(
            scheduler="ecf", path_configs=(wifi_config(0.3),), size=10**7, timeout=0.5,
        )
        with CampaignStore(tmp_path / "warm.db") as store:
            CampaignRunner(store, "warm", cache_dir=cache).run(specs[:1])
        with CampaignStore(tmp_path / "c.db") as store:
            runner = CampaignRunner(
                store, "mixed", cache_dir=cache, journal=tmp_path / "j.jsonl",
            )
            runner.submit(specs + [doomed])
            assert runner.drain()["failed"] == 1
            cid = runner.campaign_id
            store.record_journal(cid, {"record": "retry", "attempt": 1})
            store.record_journal(cid, {"record": "job"})

            records = store.journal_records(cid)
            by_status = {}
            for record in records:
                if record["record"] == "job":
                    status = str(record.get("status", "unknown"))
                    by_status[status] = by_status.get(status, 0) + 1
            assert by_status == {"cached": 1, "executed": 2, "failed": 1, "unknown": 1}

            def parsed(*args, **kwargs):
                raise AssertionError("status parsed journal rows in Python")

            monkeypatch.setattr(CampaignStore, "journal_records", parsed)
            doc = status_document(store, "mixed")
            assert doc["journal_jobs"] == by_status
            assert doc["retries"] == sum(r["record"] == "retry" for r in records) == 1
            assert doc["cache_hit_rate"] == 1 / 3
            assert sorted(doc) == [
                "backend", "cache_dir", "cache_hit_rate", "campaign", "counts",
                "done_fraction", "eta_s", "events_per_s", "jobs_per_s",
                "journal_jobs", "remaining", "retries", "total", "updated_wall",
            ]
            daemon = CampaignDaemon(store, "mixed", cache_dir=str(cache))
            try:
                served = daemon.refresh()
            finally:
                daemon.shutdown()
            assert served["journal_jobs"] == by_status and served["retries"] == 1

    def test_matches_cli_status_json(self, tmp_path):
        from repro import cli

        db = tmp_path / "c.db"
        with CampaignStore(db) as store:
            runner = CampaignRunner(
                store, "cli-doc", cache_dir=tmp_path / "cache",
                journal=tmp_path / "j.jsonl",
            )
            runner.submit(bulk_specs(1))
            runner.drain()
        rc = cli.main(["campaign", "status", "cli-doc", "--db", str(db),
                       "--json"])
        assert rc == 0


def test_importing_the_package_loads_no_http_server():
    """Every entry point imports ``repro`` and most import ``repro.cli``;
    neither may pay for http.server and what it drags in: only the
    daemon's ``start_http()`` imports it (``tests/test_imports.py`` holds
    the rest of the import closure)."""
    heavy = ["http.server", "http.client", "email", "ssl", "socketserver"]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.cli; "
         f"print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


class TestDaemonServe:
    def build(self, tmp_path, name="serve", n=3, **kwargs):
        store = CampaignStore(tmp_path / "c.db")
        runner = CampaignRunner(
            store, name, cache_dir=tmp_path / "cache",
            journal=tmp_path / "seed.jsonl",
        )
        runner.submit(bulk_specs(n))
        daemon = CampaignDaemon(
            store, name, cache_dir=str(tmp_path / "cache"),
            journal=str(tmp_path / "daemon.jsonl"),
            poll_interval_s=0.05, **kwargs,
        )
        return store, daemon

    def test_serve_drains_and_gauges_match_ground_truth(self, tmp_path):
        store, daemon = self.build(tmp_path)
        try:
            daemon.start_http()
            doc = daemon.serve(max_loops=2)
            assert doc["counts"] == {
                "pending": 0, "running": 0, "done": 3, "failed": 0,
            }
            truth = store.counts(daemon.runner.campaign_id)
            scrape = fetch_metrics(daemon.endpoint)
            assert validate_openmetrics(scrape) == []
            for status, count in truth.items():
                needle = (
                    f'repro_campaign_jobs{{campaign="serve",'
                    f'status="{status}"}} {count}'
                )
                assert needle in scrape.splitlines(), needle
        finally:
            daemon.shutdown()

    def test_status_endpoint_serves_the_document(self, tmp_path):
        store, daemon = self.build(tmp_path, name="statusd", n=1)
        try:
            daemon.start_http()
            daemon.serve(max_loops=1)
            doc = fetch_status(daemon.endpoint)
            assert doc["campaign"] == "statusd"
            assert doc["counts"]["done"] == 1
            truth = status_document(store, "statusd")
            assert doc["counts"] == truth["counts"]
        finally:
            daemon.shutdown()

    def test_status_is_whole_before_the_first_serve(self, tmp_path):
        # ``campaign serve`` prints its endpoint before serve() runs: a
        # client reading in that window gets the whole document.
        store, daemon = self.build(tmp_path, name="first", n=2)
        try:
            daemon.start_http()
            doc = fetch_status(daemon.endpoint)
            assert doc["total"] == doc["remaining"] == 2
            assert doc["counts"] == status_document(store, "first")["counts"]
        finally:
            daemon.shutdown()

    def test_healthz_and_404(self, tmp_path):
        store, daemon = self.build(tmp_path, name="health", n=1)
        try:
            daemon.start_http()
            body = urllib.request.urlopen(
                daemon.endpoint + "/healthz", timeout=5
            ).read()
            assert body == b"ok\n"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    daemon.endpoint + "/does-not-exist", timeout=5
                )
            assert excinfo.value.code == 404
        finally:
            daemon.shutdown()

    def test_kill_and_resume_reaches_ground_truth(self, tmp_path):
        # First daemon "dies" after a partial drain (simulated by a
        # limited drain through its runner, then shutdown without
        # finishing); a second daemon resumes and finishes.
        store, first = self.build(tmp_path, name="resume", n=3)
        try:
            first.runner.drain(limit=1)
        finally:
            first.shutdown()
        counts = store.counts(first.runner.campaign_id)
        assert counts["done"] == 1
        assert counts["pending"] == 2

        second = CampaignDaemon(
            store, "resume", cache_dir=str(tmp_path / "cache"),
            journal=str(tmp_path / "daemon2.jsonl"), poll_interval_s=0.05,
        )
        try:
            second.start_http()
            doc = second.serve(max_loops=2)
            assert doc["counts"]["done"] == 3
            scrape = fetch_metrics(second.endpoint)
            assert validate_openmetrics(scrape) == []
            assert (
                'repro_campaign_jobs{campaign="resume",status="done"} 3'
                in scrape.splitlines()
            )
            assert (
                'repro_campaign_jobs{campaign="resume",status="pending"} 0'
                in scrape.splitlines()
            )
        finally:
            second.shutdown()

    def test_serve_counts_loops_and_scrapes(self, tmp_path):
        store, daemon = self.build(tmp_path, name="loops", n=1)
        try:
            daemon.start_http()
            daemon.serve(max_loops=2)
            fetch_metrics(daemon.endpoint)
            scrape = fetch_metrics(daemon.endpoint)
            lines = scrape.splitlines()
            assert 'repro_serve_loops_total{campaign="loops"} 2' in lines
            # The second scrape sees the first one counted.
            assert any(
                line.startswith("repro_serve_scrapes_total ")
                and float(line.split(" ")[1]) >= 1
                for line in lines
            )
        finally:
            daemon.shutdown()

    def test_journal_rotation_bounds_daemon_journal(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.obs.journal.RETAIN_TAIL", 4)
        store, daemon = self.build(
            tmp_path, name="rotate", n=2, journal_max_bytes=512,
        )
        try:
            daemon.serve(max_loops=1)
        finally:
            daemon.shutdown()
        journal_path = tmp_path / "daemon.jsonl"
        assert journal_path.stat().st_size <= 4096

    def test_transitions_counted(self, tmp_path):
        store, daemon = self.build(tmp_path, name="edges", n=2)
        try:
            daemon.serve(max_loops=1)
            rendered = daemon.registry["repro_campaign_transitions"]
            assert rendered.value(
                campaign="edges", from_status="pending", to_status="running"
            ) == 2
            assert rendered.value(
                campaign="edges", from_status="running", to_status="done"
            ) == 2
        finally:
            daemon.shutdown()

    def test_shutdown_unhooks_store(self, tmp_path):
        store, daemon = self.build(tmp_path, name="unhook", n=1)
        assert store.on_transition is not None
        daemon.shutdown()
        assert store.on_transition is None


class TestHttpFaults:
    """A client that stalls mid-request or sends garbage costs the daemon
    one request timeout, never a thread (or its shutdown) for good."""

    #: How long past the request timeout a disconnect may take to arrive.
    SLACK_S = 3.0

    @pytest.fixture
    def daemon(self, tmp_path):
        store = CampaignStore(tmp_path / "c.db")
        CampaignRunner(store, "faults", cache_dir=tmp_path / "cache")
        daemon = CampaignDaemon(store, "faults", cache_dir=str(tmp_path / "cache"))
        daemon.start_http()
        try:
            yield daemon
        finally:
            daemon.shutdown()
            store.close()

    @staticmethod
    def stall(daemon):
        """A connection that sent half a request line and then nothing."""
        sock = socket.create_connection((daemon.host, daemon.port), timeout=5)
        sock.sendall(b"GET /metr")
        return sock

    def disconnected(self, sock):
        """True once the server closed ``sock`` (EOF or reset) within the
        request timeout plus slack; False if it is still held open."""
        sock.settimeout(REQUEST_TIMEOUT_S + self.SLACK_S)
        try:
            return sock.recv(1024) == b""
        except ConnectionResetError:
            return True
        except socket.timeout:
            return False
        finally:
            sock.close()

    def test_a_stalled_client_is_disconnected_within_the_timeout(self, daemon):
        start = time.monotonic()
        assert self.disconnected(self.stall(daemon))
        assert time.monotonic() - start < REQUEST_TIMEOUT_S + self.SLACK_S

    def test_a_garbage_request_gets_400_and_the_next_scrape_succeeds(self, daemon):
        with socket.create_connection((daemon.host, daemon.port), timeout=5) as sock:
            sock.sendall(b"\x16\x03\x01 not an http request line\r\n\r\n")
            reply = sock.recv(4096)
        # A line that names no HTTP version is answered HTTP/0.9 style:
        # the error page alone, no status line.
        assert b"Error code: 400" in reply
        scrape = fetch_metrics(daemon.endpoint)
        assert validate_openmetrics(scrape) == []
        assert scrape.splitlines()[-1] == "# EOF"

    def test_shutdown_returns_while_stalled_clients_are_connected(self, daemon):
        before = threading.active_count()
        stalled = [self.stall(daemon) for _ in range(8)]
        # Every stalled connection has its handler thread before shutdown.
        deadline = time.monotonic() + 5
        while threading.active_count() < before + len(stalled):
            assert time.monotonic() < deadline, "handler threads never started"
            time.sleep(0.01)
        start = time.monotonic()
        daemon.shutdown()
        assert time.monotonic() - start < 5
        assert all(self.disconnected(sock) for sock in stalled)
        deadline = time.monotonic() + 5
        while threading.active_count() > before:
            assert time.monotonic() < deadline, "handler threads outlived shutdown"
            time.sleep(0.01)


class TestPerfAcrossPoolBackend:
    """Satellite: worker perf counters survive the process-pool wire
    format and sum correctly in the registry."""

    def drain_with_backend(self, tmp_path, backend, name, monkeypatch):
        from repro.perf import counters as perf_counters

        monkeypatch.setenv(perf_counters.ENV_VAR, "1")
        outcomes = []
        with CampaignStore(tmp_path / f"{name}.db") as store:
            runner = CampaignRunner(
                store, name, backend=backend,
                cache_dir=tmp_path / f"{name}-cache",
                journal=tmp_path / f"{name}.jsonl",
                on_outcome=outcomes.append,
            )
            runner.submit(bulk_specs(3))
            counts = runner.drain()
        assert counts["done"] == 3
        return outcomes

    def test_pool_outcomes_carry_perf_records(self, tmp_path, monkeypatch):
        outcomes = self.drain_with_backend(
            tmp_path, PoolBackendConfig(jobs=2), "pool", monkeypatch
        )
        executed = [o for o in outcomes if o.status == "executed"]
        assert len(executed) == 3
        for outcome in executed:
            assert isinstance(outcome.perf, dict)
            assert outcome.perf["counters"]["events_dispatched"] > 0
            assert outcome.perf["wall_s"] > 0

    def test_pool_counters_sum_in_registry_like_inline(
        self, tmp_path, monkeypatch
    ):
        pool = self.drain_with_backend(
            tmp_path, PoolBackendConfig(jobs=2), "pool-sum", monkeypatch
        )
        inline = self.drain_with_backend(
            tmp_path, InlineBackendConfig(), "inline-sum", monkeypatch
        )

        def registry_total(outcomes, campaign):
            registry = MetricRegistry()
            for outcome in outcomes:
                if outcome.perf:
                    publish_perf_counters(
                        registry, outcome.perf, campaign=campaign
                    )
            return registry["repro_perf_events_dispatched"].value(
                campaign=campaign
            )

        pool_total = registry_total(pool, "pool-sum")
        inline_total = registry_total(inline, "inline-sum")
        # Identical specs simulate identical event counts whichever side
        # of the pool boundary the counters were collected on.
        assert pool_total == inline_total
        assert pool_total == sum(
            o.perf["counters"]["events_dispatched"] for o in pool if o.perf
        )

    def test_cache_hits_have_no_perf_record(self, tmp_path, monkeypatch):
        from repro.perf import counters as perf_counters

        monkeypatch.setenv(perf_counters.ENV_VAR, "1")
        specs = bulk_specs(2)
        with CampaignStore(tmp_path / "c.db") as store:
            first = CampaignRunner(
                store, "warm", cache_dir=tmp_path / "cache",
            )
            first.submit(specs)
            first.drain()
            outcomes = []
            second = CampaignRunner(
                store, "hits", cache_dir=tmp_path / "cache",
                on_outcome=outcomes.append,
            )
            second.submit(specs)
            second.drain()
        assert [o.status for o in outcomes] == ["cached", "cached"]
        assert all(o.perf is None for o in outcomes)


class TestDaemonEventsRate:
    def test_events_per_second_gauge_set(self, tmp_path, monkeypatch):
        from repro.perf import counters as perf_counters

        monkeypatch.setenv(perf_counters.ENV_VAR, "1")
        store = CampaignStore(tmp_path / "c.db")
        CampaignRunner(
            store, "rate", cache_dir=tmp_path / "cache",
        ).submit(bulk_specs(2))
        daemon = CampaignDaemon(
            store, "rate", cache_dir=str(tmp_path / "cache"),
            journal=str(tmp_path / "j.jsonl"), poll_interval_s=0.05,
        )
        try:
            doc = daemon.serve(max_loops=1)
            assert doc["counts"]["done"] == 2
            gauge = daemon.registry["repro_serve_events_per_second"]
            assert gauge.value(campaign="rate") > 0
            assert doc["events_per_s"] and doc["events_per_s"] > 0
        finally:
            daemon.shutdown()


class TestCatalogAgainstGroundTruth:
    """Every :data:`CATALOG` family, as ``/metrics`` serves it, against a
    number computed without the registry: the store's rows, the journal
    file, the ``JobOutcome`` perf records, the requests this test made.
    The loop runs over ``CATALOG``, so a family nothing feeds (or a new
    one nobody wrote an oracle for) fails here instead of being served
    empty forever."""

    NAME = "truth"
    LOOPS = 2
    SCRAPES = 2

    def drained_daemon(self, tmp_path):
        """A small mixed campaign (3 bulk + 1 streaming job, one of them
        already in the cache) drained by a daemon on a 2-worker pool."""
        specs = bulk_specs(3) + [
            StreamingSpec(scheduler="ecf", wifi_mbps=8.6, lte_mbps=8.6,
                          video_duration=5.0),
        ]
        store = CampaignStore(tmp_path / "c.db")
        warm = CampaignRunner(store, "warm", cache_dir=tmp_path / "cache")
        warm.submit(specs[:1])
        warm.drain()
        CampaignRunner(
            store, self.NAME, backend=PoolBackendConfig(jobs=2),
            cache_dir=tmp_path / "cache",
        ).submit(specs)
        daemon = CampaignDaemon(
            store, self.NAME, cache_dir=str(tmp_path / "cache"),
            journal=str(tmp_path / "truth.jsonl"), poll_interval_s=0.05,
        )
        outcomes = []
        publish = daemon.runner.on_outcome

        def tee(outcome):
            outcomes.append(outcome)
            publish(outcome)

        daemon.runner.on_outcome = tee
        try:
            daemon.start_http()
            daemon.serve(max_loops=self.LOOPS)
            for _ in range(self.SCRAPES):
                scrape = fetch_metrics(daemon.endpoint)
            jobs = store.jobs(daemon.runner.campaign_id)
            counts = store.counts(daemon.runner.campaign_id)
        finally:
            daemon.shutdown()
            store.close()
        return jobs, counts, outcomes, scrape

    def test_every_family_equals_an_independent_count(
        self, tmp_path, monkeypatch
    ):
        from collections import Counter

        from repro.perf import counters as perf_counters

        monkeypatch.setenv(perf_counters.ENV_VAR, "1")
        jobs, counts, outcomes, scrape = self.drained_daemon(tmp_path)
        name = self.NAME
        assert sorted(o.status for o in outcomes) == [
            "cached", "executed", "executed", "executed",
        ]
        # Cached jobs carry no perf record and so contribute nothing.
        perf = [o.perf for o in outcomes if o.status == "executed"]
        assert all(perf) and not any(
            o.perf for o in outcomes if o.status == "cached"
        )

        def only(total):
            """Nothing counted means no sample, not a zero."""
            return {(name,): total} if total else {}

        edges = Counter()
        for job in jobs:
            edges[(name, "pending", "running")] += job.attempts
            if job.status in ("done", "failed"):
                edges[(name, "running", job.status)] += 1
        journal = read_journal(tmp_path / "truth.jsonl")
        kinds = Counter(record["record"] for record in journal)
        wall_s = sum(p["wall_s"] for p in perf)
        truth = {
            "repro_campaign_jobs": {
                (name, status): count for status, count in counts.items()
            },
            "repro_campaign_transitions": dict(edges),
            "repro_campaign_journal_records": {
                (name, kind): count for kind, count in kinds.items()
            },
            "repro_campaign_job_outcomes": dict(Counter(
                (name, record["status"])
                for record in journal if record["record"] == "job"
            )),
            "repro_campaign_retries": only(kinds["retry"]),
            "repro_campaign_drains": only(kinds["batch_start"]),
            **{
                f"repro_perf_{field}": {
                    (name,): sum(p["counters"][field] for p in perf)
                }
                for field in PERF_COUNTER_FIELDS
            },
            "repro_perf_sim_seconds": {(name,): sum(p["sim_s"] for p in perf)},
            "repro_perf_wall_seconds": {(name,): wall_s},
            "repro_serve_scrapes": {(): self.SCRAPES},
            "repro_serve_loops": {(name,): self.LOOPS},
            "repro_serve_events_per_second": {
                (name,): sum(p["events"] for p in perf) / wall_s
            },
        }

        assert validate_openmetrics(scrape) == []
        served = {}
        for line in scrape.splitlines():
            if not line.startswith("#"):
                sample, labels, value = re.match(
                    r"^(\w+?)(?:\{(.*)\})? (\S+)$", line
                ).groups()
                pairs = dict(re.findall(r'(\w+)="([^"]*)"', labels or ""))
                served.setdefault(sample, []).append((pairs, float(value)))
        suffixes = {"counter": "_total", "gauge": ""}
        for family, (kind, _help, label_names) in CATALOG.items():
            if family not in truth:
                pytest.fail(
                    f"{family}: no independent oracle -- a family nothing "
                    "can check does not belong in the catalog"
                )
            got = {
                tuple(pairs[label] for label in label_names): value
                for pairs, value in served.pop(family + suffixes[kind], [])
            }
            assert got == pytest.approx(truth[family]), family
        assert served == {}, "samples outside the catalog"
        # The interesting rows really were exercised, not vacuously equal.
        assert truth["repro_campaign_transitions"] == {
            (name, "pending", "running"): 4, (name, "running", "done"): 4,
        }
        assert truth["repro_campaign_drains"] == {(name,): 1}
        assert truth["repro_campaign_retries"] == {}
        assert truth["repro_perf_events_dispatched"][(name,)] > 0


class TestMetricsValidateCli:
    def test_validate_accepts_daemon_scrape(self, tmp_path, capsys):
        from repro import cli

        store = CampaignStore(tmp_path / "c.db")
        CampaignRunner(
            store, "v", cache_dir=tmp_path / "cache",
        ).submit(bulk_specs(1))
        daemon = CampaignDaemon(
            store, "v", cache_dir=str(tmp_path / "cache"),
            journal=str(tmp_path / "j.jsonl"), poll_interval_s=0.05,
        )
        try:
            daemon.start_http()
            daemon.serve(max_loops=1)
            scrape_path = tmp_path / "scrape.txt"
            scrape_path.write_text(fetch_metrics(daemon.endpoint))
        finally:
            daemon.shutdown()
        assert cli.main(["metrics", "validate", str(scrape_path)]) == 0
        out = capsys.readouterr().out
        assert "valid OpenMetrics exposition" in out

    def test_validate_rejects_truncated_scrape(self, tmp_path, capsys):
        from repro import cli

        bad = tmp_path / "bad.txt"
        bad.write_text("# TYPE x counter\nx_total 1\n")  # no EOF
        assert cli.main(["metrics", "validate", str(bad)]) == 1


class TestServeSubprocess:
    """``campaign serve`` as a real process: submit, SIGKILL mid-drain,
    resume, scrape, validate, compare with the store."""

    GRID = ["--sweep", "grid", "--scheduler", "ecf", "--video", "10",
            "--wifi-grid", "0.7", "8.6", "--lte-grid", "0.7", "8.6"]
    JOBS = 4

    @staticmethod
    def serve(db, cache):
        """Start ``campaign serve`` in its own process; (proc, endpoint)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign", "serve", "ci-tele",
             "--db", str(db), "--cache-dir", str(cache),
             "--port", "0", "--poll-interval", "0.2"],
            stdout=subprocess.PIPE, text=True,
        )
        banner = proc.stdout.readline()
        match = re.search(r"on (http://\S+)", banner)
        if match is None:
            proc.kill()
            proc.wait(timeout=30)
            pytest.fail(f"no endpoint in serve banner {banner!r}")
        return proc, match.group(1)

    @staticmethod
    def wait_for(condition, timeout_s=120.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if condition():
                return
            time.sleep(0.05)
        pytest.fail("timed out waiting for the campaign daemon")

    def test_scraped_gauges_equal_store_truth_after_sigkill_and_resume(
        self, tmp_path, capsys
    ):
        from repro import cli

        db, cache = tmp_path / "tele.db", tmp_path / "cache"
        assert cli.main(["campaign", "submit", "ci-tele", "--no-run",
                         "--db", str(db), "--cache-dir", str(cache), *self.GRID]) == 0

        def done():
            with CampaignStore(db) as store:
                return store.counts(store.campaign("ci-tele").id)["done"]

        # SIGKILL, not SIGTERM: the resumed daemon's telemetry must match
        # the store even after an unclean predecessor death mid-drain.
        first, _ = self.serve(db, cache)
        try:
            self.wait_for(lambda: done() >= 1 or first.poll() is not None)
        finally:
            first.kill()
            first.wait(timeout=30)

        second, endpoint = self.serve(db, cache)
        try:
            self.wait_for(lambda: fetch_status(endpoint)["remaining"] == 0)
            scrape = fetch_metrics(endpoint)
            served = fetch_status(endpoint)["counts"]
        finally:
            second.terminate()
            second.wait(timeout=30)

        capsys.readouterr()
        assert cli.main(["campaign", "status", "ci-tele", "--db", str(db), "--json"]) == 0
        truth = json.loads(capsys.readouterr().out)["counts"]
        assert truth["done"] == self.JOBS and truth["failed"] == 0, truth
        assert served == truth
        assert validate_openmetrics(scrape) == []
        scraped = dict(re.findall(
            r'^repro_campaign_jobs\{campaign="ci-tele",status="(\w+)"\} (\S+)$',
            scrape, flags=re.M,
        ))
        assert {status: float(value) for status, value in scraped.items()} == truth
