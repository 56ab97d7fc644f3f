"""Tests for the command-line interface."""

import argparse
import base64
import json
import os
import re
import struct
from pathlib import Path

import pytest

from repro import cli
from repro.analysis import check, sanitize
from repro.cli import build_parser, main, parse_size
from repro.experiments.exec import ExperimentExecutor, ResultCache
from repro.experiments.grid import streaming_grid_specs
from repro.experiments.runner import StreamingRunConfig
from repro.apps.bulk import BulkDownloadSpec
from repro.experiments.spec import result_from_dict, spec_hash
from repro.net.profiles import lte_config, wifi_config
from repro.obs import flight, timeline
from repro.perf import counters
from repro.service import CampaignRunner, CampaignStore
from repro.workloads.web import WebBrowsingSpec


class TestParseSize:
    def test_plain_bytes(self):
        assert parse_size("1000") == 1000

    def test_kilobytes(self):
        assert parse_size("512k") == 512 * 1024

    def test_megabytes(self):
        assert parse_size("2m") == 2 * 1024 * 1024

    def test_case_insensitive(self):
        assert parse_size("1M") == 1024 * 1024

    def test_rejects_garbage(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size("lots")

    def test_rejects_nonpositive(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size("0")


SCHEDULERS = ("minrtt", "ecf", "blest", "daps", "mpdash")
FIXTURES = SCHEDULERS + ("ecf-nowait", "ecf-noineq2", "ecf-invbeta")

#: Every argument of every command, in ``--help`` order: (command path,
#: option strings, dest, default, choices, nargs, required, type name).
#: A flag that appears, moves, or changes its default is a diff here.
PARSER_SURFACE = [
    ("", (), "command", None,
     ("download", "streaming", "web", "grid", "wild", "campaign", "check", "lint", "trace",
      "report"), "A...", True, None),
    ("download", ("--scheduler",), "scheduler", ["minrtt", "ecf"], SCHEDULERS, "+", False, None),
    ("download", ("--wifi",), "wifi", 1.0, None, None, False, "float"),
    ("download", ("--lte",), "lte", 8.6, None, None, False, "float"),
    ("download", ("--seed",), "seed", 0, None, None, False, "int"),
    ("download", ("--sanitize",), "sanitize", False, None, 0, False, None),
    ("download", ("--size",), "size", 524288, None, None, False, "parse_size"),
    ("streaming", ("--scheduler",), "scheduler", ["minrtt", "ecf"], FIXTURES, "+", False, None),
    ("streaming", ("--wifi",), "wifi", 1.0, None, None, False, "float"),
    ("streaming", ("--lte",), "lte", 8.6, None, None, False, "float"),
    ("streaming", ("--seed",), "seed", 0, None, None, False, "int"),
    ("streaming", ("--sanitize",), "sanitize", False, None, 0, False, None),
    ("streaming", ("--video",), "video", 120.0, None, None, False, "float"),
    ("streaming", ("--jobs",), "jobs", 1, None, None, False, "_positive_int"),
    ("streaming", ("--cache-dir",), "cache_dir", None, None, None, False, None),
    ("streaming", ("--no-cache",), "no_cache", False, None, 0, False, None),
    ("streaming", ("--check",), "check", False, None, 0, False, None),
    ("streaming", ("--perf",), "perf", False, None, 0, False, None),
    ("streaming", ("--obs",), "obs", False, None, 0, False, None),
    ("streaming", ("--obs-dir",), "obs_dir", None, None, None, False, None),
    ("web", ("--scheduler",), "scheduler", ["minrtt", "ecf"], SCHEDULERS, "+", False, None),
    ("web", ("--wifi",), "wifi", 1.0, None, None, False, "float"),
    ("web", ("--lte",), "lte", 8.6, None, None, False, "float"),
    ("web", ("--seed",), "seed", 0, None, None, False, "int"),
    ("web", ("--sanitize",), "sanitize", False, None, 0, False, None),
    ("grid", ("--scheduler",), "scheduler", "ecf", SCHEDULERS, None, False, None),
    ("grid", ("--video",), "video", 60.0, None, None, False, "float"),
    ("grid", ("--seed",), "seed", 0, None, None, False, "int"),
    ("grid", ("--jobs",), "jobs", 1, None, None, False, "_positive_int"),
    ("grid", ("--cache-dir",), "cache_dir", None, None, None, False, None),
    ("grid", ("--no-cache",), "no_cache", False, None, 0, False, None),
    ("grid", ("--sanitize",), "sanitize", False, None, 0, False, None),
    ("grid", ("--check",), "check", False, None, 0, False, None),
    ("grid", ("--obs",), "obs", False, None, 0, False, None),
    ("grid", ("--obs-dir",), "obs_dir", None, None, None, False, None),
    ("wild", ("--runs",), "runs", 5, None, None, False, "int"),
    ("wild", ("--video",), "video", 60.0, None, None, False, "float"),
    ("wild", ("--jobs",), "jobs", 1, None, None, False, "_positive_int"),
    ("wild", ("--cache-dir",), "cache_dir", None, None, None, False, None),
    ("wild", ("--no-cache",), "no_cache", False, None, 0, False, None),
    ("wild", ("--sanitize",), "sanitize", False, None, 0, False, None),
    ("wild", ("--check",), "check", False, None, 0, False, None),
    ("wild", ("--obs",), "obs", False, None, 0, False, None),
    ("wild", ("--obs-dir",), "obs_dir", None, None, None, False, None),
    ("campaign", (), "campaign_command", None,
     ("submit", "status", "serve", "fetch", "retry"), "A...", True, None),
    ("campaign submit", (), "name", None, None, None, True, None),
    ("campaign submit", ("--db",), "db", "campaigns.db", None, None, False, None),
    ("campaign submit", ("--cache-dir",), "cache_dir", None, None, None, False, None),
    ("campaign submit", ("--jobs",), "jobs", 1, None, None, False, "_positive_int"),
    ("campaign submit", ("--max-attempts",), "max_attempts", 3, None, None, False, "_positive_int"),
    ("campaign submit", ("--sweep",), "sweep", "grid", ("grid", "wget", "wild"), None, False, None),
    ("campaign submit", ("--scheduler",), "scheduler", ["ecf"], FIXTURES, "+", False, None),
    ("campaign submit", ("--video",), "video", 30.0, None, None, False, "float"),
    ("campaign submit", ("--wifi-grid",), "wifi_grid", None, None, "+", False, "float"),
    ("campaign submit", ("--lte-grid",), "lte_grid", None, None, "+", False, "float"),
    ("campaign submit", ("--runs-per-cell",), "runs_per_cell", 1, None, None, False,
     "_positive_int"),
    ("campaign submit", ("--size",), "size", [524288], None, "+", False, "parse_size"),
    ("campaign submit", ("--runs",), "runs", 9, None, None, False, "_positive_int"),
    ("campaign submit", ("--seed",), "seed", 0, None, None, False, "int"),
    ("campaign submit", ("--timeout",), "timeout", None, None, None, False, "float"),
    ("campaign submit", ("--retries",), "retries", 1, None, None, False, "_non_negative_int"),
    ("campaign submit", ("--no-run",), "no_run", False, None, 0, False, None),
    ("campaign status", (), "name", None, None, None, True, None),
    ("campaign status", ("--db",), "db", "campaigns.db", None, None, False, None),
    ("campaign status", ("--json",), "json", False, None, 0, False, None),
    ("campaign serve", (), "name", None, None, None, True, None),
    ("campaign serve", ("--db",), "db", "campaigns.db", None, None, False, None),
    ("campaign serve", ("--cache-dir",), "cache_dir", None, None, None, False, None),
    ("campaign serve", ("--jobs",), "jobs", None, None, None, False, "_positive_int"),
    ("campaign serve", ("--max-attempts",), "max_attempts", 3, None, None, False, "_positive_int"),
    ("campaign serve", ("--host",), "host", "127.0.0.1", None, None, False, None),
    ("campaign serve", ("--port",), "port", 0, None, None, False, "int"),
    ("campaign serve", ("--poll-interval",), "poll_interval", 2.0, None, None, False, "float"),
    ("campaign serve", ("--exit-when-done",), "exit_when_done", False, None, 0, False, None),
    ("campaign serve", ("--journal-max-bytes",), "journal_max_bytes", 16777216, None, None, False,
     "int"),
    ("campaign fetch", (), "name", None, None, None, True, None),
    ("campaign fetch", ("--db",), "db", "campaigns.db", None, None, False, None),
    ("campaign fetch", ("--cache-dir",), "cache_dir", None, None, None, False, None),
    ("campaign fetch", ("-o", "--output"), "output", "-", None, None, False, None),
    ("campaign retry", (), "name", None, None, None, True, None),
    ("campaign retry", ("--db",), "db", "campaigns.db", None, None, False, None),
    ("campaign retry", ("--cache-dir",), "cache_dir", None, None, None, False, None),
    ("campaign retry", ("--jobs",), "jobs", 1, None, None, False, "_positive_int"),
    ("campaign retry", ("--max-attempts",), "max_attempts", 3, None, None, False, "_positive_int"),
    ("campaign retry", ("--no-run",), "no_run", False, None, 0, False, None),
    ("check", ("--scheduler",), "scheduler", ["ecf", "minrtt"], FIXTURES, "+", False, None),
    ("check", ("--scenario",), "scenario", ["dash", "dash4sf", "bulk", "web"],
     ("dash", "dash4sf", "bulk", "web"), "+", False, None),
    ("check", ("--orders",), "orders", 5, None, None, False, "_positive_int"),
    ("check", ("--skip-races",), "skip_races", False, None, 0, False, None),
    ("check", ("--wifi",), "wifi", 8.6, None, None, False, "float"),
    ("check", ("--lte",), "lte", 8.6, None, None, False, "float"),
    ("check", ("--video",), "video", 30.0, None, None, False, "float"),
    ("check", ("--size",), "size", 524288, None, None, False, "parse_size"),
    ("check", ("--seed",), "seed", 7, None, None, False, "int"),
    ("lint", (), "paths", None, None, "*", True, None),
    ("lint", ("--select",), "select", None, None, "+", False, None),
    ("lint", ("--list-rules",), "list_rules", False, None, 0, False, None),
    ("trace", (), "trace_command", None, ("export", "validate"), "A...", True, None),
    ("trace export", (), "source", None, None, None, True, None),
    ("trace export", ("-o", "--output"), "output", None, None, None, False, None),
    ("trace validate", (), "document", None, None, None, True, None),
    ("trace validate", ("--min-subflow-tracks",), "min_subflow_tracks", 0, None, None, False,
     "int"),
    ("trace validate", ("--require-ecf-waits",), "require_ecf_waits", False, None, 0, False, None),
    ("report", ("--output",), "output", "-", None, None, False, None),
]


#: The prose that tells a user what to type: a command it names that the
#: parser does not know is a command that was removed or renamed.
_REPO = Path(__file__).resolve().parent.parent
_DOCS = [
    _REPO / "README.md", *sorted((_REPO / "docs").glob("*.md")),
    _REPO / ".claude" / "skills" / "verify" / "SKILL.md",
]
#: ``python -m repro.cli CMD [SUB]`` anywhere, and a backticked ``campaign
#: SUB`` / ``trace SUB``; ``SUB`` may be an ``a|b|c`` list.
_NAMED_COMMAND = re.compile(
    r"python -m repro\.cli\s+([a-z][\w-]*)(?:\s+([a-z][\w-]*(?:\|[a-z][\w-]*)*))?"
    r"|`(campaign|trace)\s+([a-z][\w-]*(?:\|[a-z][\w-]*)*)"
)


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_docs_name_only_commands_the_parser_knows():
    commands = _subcommands(build_parser())
    named, unknown = 0, []
    for doc in _DOCS:
        text = doc.read_text()
        for match in _NAMED_COMMAND.finditer(text):
            command, subs = match.group(1, 2) if match.group(1) else match.group(3, 4)
            named += 1
            known = _subcommands(commands[command]) if command in commands else None
            if known is None or (known and subs and not set(subs.split("|")) <= set(known)):
                line = text.count("\n", 0, match.start()) + 1
                unknown.append(f"{doc.relative_to(_REPO)}:{line}: {match.group(0)!r}")
    assert named > 20  # the scan found the docs' commands at all
    assert unknown == []


def parser_surface(parser, path=""):
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = None if action.choices is None else tuple(action.choices)
        rows.append((
            path, tuple(action.option_strings), action.dest, action.default,
            choices, action.nargs, action.required,
            getattr(action.type, "__name__", None),
        ))
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                rows.extend(parser_surface(sub, f"{path} {name}".strip()))
    return rows


def test_parser_surface_is_pinned():
    assert parser_surface(build_parser()) == PARSER_SURFACE


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_download_defaults(self):
        args = build_parser().parse_args(["download"])
        assert args.scheduler == ["minrtt", "ecf"]
        assert args.size == 512 * 1024

    def test_scheduler_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["download", "--scheduler", "nope"])

    @pytest.mark.parametrize("command", ["streaming", "grid", "wild"])
    def test_sweep_commands_have_no_campaign_fork(self, command, capsys):
        # A durable sweep is `campaign submit --sweep ...`, nothing else.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--campaign", "x"])
        assert exit_info.value.code == 2
        assert "--campaign" in capsys.readouterr().err


class TestCommands:
    def test_download_runs(self, capsys):
        assert main([
            "download", "--scheduler", "ecf", "--size", "64k",
            "--wifi", "2", "--lte", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "ecf" in out

    def test_streaming_runs(self, capsys):
        assert main([
            "streaming", "--scheduler", "ecf", "--wifi", "4.2", "--lte", "8.6",
            "--video", "15",
        ]) == 0
        assert "ideal bit rate" in capsys.readouterr().out

    def test_no_cache_bypasses_configured_dir(self, tmp_path, capsys, monkeypatch):
        argv = [
            "streaming", "--scheduler", "ecf", "--video", "10",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert len(list(tmp_path.glob("*/*.json"))) == 1
        warm = capsys.readouterr().out
        # --no-cache: fresh runs, nothing read or written.
        touched = []
        monkeypatch.setattr(ResultCache, "get", lambda self, key: touched.append(key))
        monkeypatch.setattr(ResultCache, "put", lambda self, key, _: touched.append(key))
        monkeypatch.setattr(ResultCache, "verify", lambda self, key, _: touched.append(key))
        assert main(argv + ["--no-cache"]) == 0
        assert touched == []
        assert capsys.readouterr().out == warm

    def test_web_runs(self, capsys):
        assert main(["web", "--scheduler", "minrtt", "--wifi", "5", "--lte", "5"]) == 0
        assert "page load" in capsys.readouterr().out

    def test_wild_runs(self, capsys):
        assert main(["wild", "--runs", "2", "--video", "15"]) == 0
        assert "wifi rtt" in capsys.readouterr().out

    def test_a_submitted_sweep_renders_from_its_cache(self, tmp_path, capsys):
        """`campaign submit --sweep grid` then `grid --cache-dir D`: the
        render reads the campaign's cache and simulates nothing."""
        cache = tmp_path / "cache"
        assert main([
            "campaign", "submit", "sweep", "--db", str(tmp_path / "c.db"),
            "--cache-dir", str(cache), "--sweep", "grid", "--video", "10",
            "--wifi-grid", "0.7", "8.6", "--lte-grid", "8.6",
        ]) == 0
        assert "done=2 failed=0" in capsys.readouterr().out
        base = StreamingRunConfig(scheduler="ecf", video_duration=10.0, seed=0)
        executor = ExperimentExecutor(cache_dir=cache)
        executor.run(
            [spec for _, spec in streaming_grid_specs(base, (0.7, 8.6), (8.6,))]
        )
        assert (executor.stats.executed, executor.stats.cached) == (0, 2)

    def test_grid_on_two_workers_prints_the_heat_map_the_serial_run_prints(
        self, tmp_path, capsys
    ):
        argv = ["grid", "--video", "10", "--cache-dir", str(tmp_path)]
        assert main(argv + ["--jobs", "2"]) == 0
        pooled = capsys.readouterr().out
        lines = pooled.splitlines()
        assert lines[0] == "measured/ideal bit rate, scheduler=ecf"
        assert lines[1].split()[:6] == ["0.3", "0.7", "1.1", "1.7", "4.2", "8.6"]
        rows = [line.split() for line in lines[2:8]]
        assert [row[0] for row in rows] == ["8.6", "4.2", "1.7", "1.1", "0.7", "0.3"]
        assert all(len(row) == 7 and 0.0 < float(cell) <= 1.0 for row in rows for cell in row[1:])
        assert len(list(tmp_path.glob("*/*.json"))) == 36
        # Serial, from the cache the pool filled: byte-identical.
        assert main(argv) == 0
        assert capsys.readouterr().out == pooled


class TestCampaignCommands:
    """`fetch` and `retry` over a drained two-cell sweep."""

    @pytest.fixture
    def campaign(self, tmp_path, capsys):
        where = ["--db", str(tmp_path / "c.db"), "--cache-dir", str(tmp_path / "cache")]
        assert main([
            "campaign", "submit", "two", *where, "--sweep", "wget", "--scheduler", "ecf",
            "--size", "64k", "--wifi-grid", "1.0", "8.6", "--lte-grid", "8.6",
        ]) == 0
        capsys.readouterr()
        return where

    def test_fetch_prints_the_results_the_library_fetches(self, campaign, tmp_path, capsys):
        assert main(["campaign", "fetch", "two", *campaign]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [sorted(line) for line in lines] == [["kind", "result", "spec_hash"]] * 2
        with CampaignStore(tmp_path / "c.db") as store:
            fetched = CampaignRunner(store, "two", cache_dir=tmp_path / "cache").fetch()
        assert [result_from_dict(line["kind"], line["result"]) for line in lines] == fetched
        out = tmp_path / "results.jsonl"
        assert main(["campaign", "fetch", "two", *campaign, "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2 result(s) to {out}\n"
        assert [json.loads(line) for line in out.read_text().splitlines()] == lines

    def test_fetch_counts_what_it_cannot_deliver(self, campaign, tmp_path, capsys):
        (entry,) = list((tmp_path / "cache").glob("*/*.json"))[:1]
        entry.unlink()
        assert main(["campaign", "fetch", "two", *campaign]) == 1
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1
        assert captured.err == "1 job(s) not fetchable (not done or cache entry gone)\n"

    def test_retry_requeues_nothing_on_a_clean_campaign(self, campaign, capsys):
        assert main(["campaign", "retry", "two", *campaign]) == 0
        assert capsys.readouterr().out == (
            "campaign two: 0 job(s) requeued\n"
            "campaign two: 2 job(s)  done=2 failed=0 pending=0 running=0\n"
        )

    def test_status_lists_a_job_whose_row_does_not_parse_as_failed(self, tmp_path, capsys):
        db, cache = tmp_path / "c.db", tmp_path / "cache"
        assert main([
            "campaign", "submit", "two", "--db", str(db), "--cache-dir", str(cache),
            "--no-run", "--sweep", "wget", "--scheduler", "ecf", "--size", "64k",
            "--wifi-grid", "1.0", "8.6", "--lte-grid", "8.6",
        ]) == 0
        with CampaignStore(db) as store:
            runner = CampaignRunner(store, "two", cache_dir=cache)
            key = next(iter(store.statuses(runner.campaign_id)))
            store._conn.execute(
                "UPDATE jobs SET spec = ? WHERE campaign_id = ? AND spec_hash = ?",
                ('{"kind": "bulk"', runner.campaign_id, key),
            )
            store._conn.commit()
            runner.drain()
        capsys.readouterr()
        assert main(["campaign", "status", "two", "--db", str(db)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "done=1 failed=1" in lines[0]
        (failed,) = [line for line in lines if line.startswith("  failed ")]
        assert failed.startswith(f"  failed {key[:12]} (bulk_download, attempt ")
        assert "no readable spec" in failed

    @pytest.mark.parametrize(
        "command", [["status"], ["fetch"], ["retry"], ["serve", "--exit-when-done"]],
        ids=["status", "fetch", "retry", "serve"],
    )
    def test_reading_a_store_that_is_not_there_creates_nothing(
        self, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(counters.ENV_VAR, "0")  # `serve` switches it on; undone at teardown
        assert main(["campaign", *command, "zzz", "--db", "typo.db"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "campaign store typo.db does not exist\n"
        assert list(tmp_path.iterdir()) == []


def _entry_as_lists(path):
    """A cache entry decoded into plain lists, as readers did before a
    packed list decoded to an ``array("d")``: the body parsed, each
    packed path unpacked with ``struct``."""
    head, body = path.read_bytes().split(b"\n", 1)
    payload = json.loads(body)
    for where in json.loads(head)["packed"]:
        node = payload
        for step in where[:-1]:
            node = node[step]
        raw = base64.b64decode(node[where[-1]])
        node[where[-1]] = list(struct.unpack(f"<{len(raw) // 8}d", raw))
    return payload


class TestFetchedTextIsByteIdentical:
    """A fetched delay series is an ``array("d")``: ``campaign fetch`` and
    ``trace export`` still write the text its list of floats gave, on a
    mixed streaming / web / bulk campaign."""

    SPECS = (
        StreamingRunConfig(
            scheduler="ecf", wifi_mbps=1.1, lte_mbps=8.6, video_duration=10.0,
            record_traces=True, sample_period=0.5,
        ),
        WebBrowsingSpec(
            scheduler="ecf", path_configs=(wifi_config(1.1), lte_config(8.6)),
            object_sizes=(30_000, 120_000, 8_000, 64_000),
        ),
        BulkDownloadSpec(
            scheduler="minrtt", path_configs=(wifi_config(8.6), lte_config(8.6)), size=64_000,
        ),
    )

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mixed")
        with CampaignStore(root / "c.db") as store:
            runner = CampaignRunner(store, "mixed", cache_dir=root / "cache")
            runner.submit(self.SPECS)
            assert runner.drain()["done"] == len(self.SPECS)
        return root

    def entries(self, root):
        cache = ResultCache(root / "cache")
        return [(spec, spec_hash(spec), cache.path_for(spec_hash(spec))) for spec in self.SPECS]

    def test_campaign_fetch(self, campaign, capsys):
        where = ["--db", str(campaign / "c.db"), "--cache-dir", str(campaign / "cache")]
        assert main(["campaign", "fetch", "mixed", *where]) == 0
        expected = []
        for spec, key, path in self.entries(campaign):
            packed = json.loads(path.read_bytes().split(b"\n", 1)[0])["packed"]
            assert (["result", "ooo_delays"] in packed) == (spec.kind != "bulk_download")
            record = {"spec_hash": key, "kind": spec.kind, "result": _entry_as_lists(path)["result"]}
            expected.append(json.dumps(record, sort_keys=True) + "\n")
        assert capsys.readouterr().out == "".join(expected)

    def test_trace_export(self, campaign, capsys):
        for spec, _key, path in self.entries(campaign):
            assert main(["trace", "export", str(path)]) == 0
            trace = _entry_as_lists(path)["result"].get("trace")
            assert bool(trace) == (spec.kind == "streaming")
            document = timeline.timeline_document([], trace if isinstance(trace, dict) else {})
            assert capsys.readouterr().out == json.dumps(document) + "\n"


def test_each_tool_flag_sets_exactly_the_env_var_its_module_names(monkeypatch):
    switches = [sanitize.ENV_VAR, check.ENV_VAR, counters.ENV_VAR, flight.ENV_VAR,
                flight.DIR_ENV_VAR]
    cases = [
        ([], {}),
        (["--sanitize"], {sanitize.ENV_VAR: "1"}),
        (["--check"], {check.ENV_VAR: "1"}),
        (["--perf"], {counters.ENV_VAR: "1"}),
        (["--obs"], {flight.ENV_VAR: "1"}),
        (["--obs-dir", "bundles"], {flight.ENV_VAR: "1", flight.DIR_ENV_VAR: "bundles"}),
    ]
    monkeypatch.setattr(cli, "cmd_streaming", lambda args: 0)
    sanitizing = sanitize.enabled()
    for flags, expected in cases:
        for name in switches:
            monkeypatch.setenv(name, "")  # recorded, so teardown restores the caller's value
            monkeypatch.delenv(name)
        before = dict(os.environ)
        try:
            assert main(["streaming", *flags]) == 0
            assert sanitize.enabled() == (sanitizing or flags == ["--sanitize"])
        finally:
            if not sanitizing:
                sanitize.disable()
        changed = {k: v for k, v in os.environ.items() if before.get(k) != v}
        assert changed == expected, flags
        assert before.keys() <= os.environ.keys(), flags
