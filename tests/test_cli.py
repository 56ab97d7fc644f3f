"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, parse_size
from repro.experiments.exec import ExperimentExecutor, ResultCache
from repro.experiments.grid import streaming_grid_specs
from repro.experiments.runner import StreamingRunConfig


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
