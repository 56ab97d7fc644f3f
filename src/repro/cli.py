"""Command-line interface: run the paper's experiments from a shell.

Examples
--------
::

    python -m repro.cli download --scheduler ecf --size 512k --wifi 1 --lte 10
    python -m repro.cli streaming --scheduler minrtt ecf --wifi 0.3 --lte 8.6
    python -m repro.cli web --scheduler ecf --wifi 1 --lte 10
    python -m repro.cli grid --scheduler ecf --video 30 --jobs 8
    python -m repro.cli wild --runs 5 --jobs 4 --cache-dir .repro-cache

Sweep commands (``grid``, ``streaming``, ``wild``) accept ``--jobs N`` to
fan independent runs out over N worker processes, ``--cache-dir DIR`` to
memoize finished runs on disk (a re-run executes only missing cells), and
``--no-cache`` to ignore a configured cache.

Every experiment command accepts ``--sanitize`` to enable the runtime
protocol sanitizer (:mod:`repro.analysis.sanitize`) and ``--check`` to
wrap each run in trace-level record-and-check
(:mod:`repro.analysis.check`); ``lint`` runs the simulator-specific
static checks (:mod:`repro.analysis.lint`) and ``check`` runs the full
conformance matrix -- property catalog, differential oracles, and the
event-order race detector::

    python -m repro.cli lint              # lint the installed repro package
    python -m repro.cli lint src tests    # lint explicit paths
    python -m repro.cli streaming --sanitize --scheduler ecf
    python -m repro.cli check             # full conformance matrix
    python -m repro.cli check --scenario dash --scheduler ecf-nowait  # must fail
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.fixtures import FIXTURE_SCHEDULERS
from repro.apps.bulk import BulkDownloadSpec, run_bulk
from repro.apps.dash.media import VideoManifest
from repro.core.registry import SCHEDULER_NAMES
from repro.experiments.exec import ExperimentExecutor
from repro.experiments.grid import (
    PAPER_BANDWIDTH_GRID_MBPS,
    bitrate_ratio_matrix,
    format_matrix,
    streaming_grid,
)
from repro.experiments.ideal import ideal_average_bitrate
from repro.experiments.runner import StreamingRunConfig
from repro.experiments.wild import (
    WildStreamingSpec,
    run_wild,
    wild_streaming_configs,
)
from repro.metrics.stats import percentile
from repro.net.profiles import lte_config, wifi_config
from repro.workloads.web import WebBrowsingSpec, run_web


def parse_size(text: str) -> int:
    """Parse '512k' / '2m' / '1048576' into bytes."""
    text = text.strip().lower()
    multiplier = 1
    if text.endswith("k"):
        multiplier, text = 1024, text[:-1]
    elif text.endswith("m"):
        multiplier, text = 1024 * 1024, text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unparseable size: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("size must be positive")
    return int(value * multiplier)


def _scheduler_choices(fixtures: bool = False) -> tuple:
    """The ``--scheduler`` choice set, everywhere.

    Fixture schedulers (seeded-violation variants like ``ecf-nowait``)
    are opt-in per command; every parser gates them through this one
    helper so they are offered -- or hidden -- identically.
    """
    return SCHEDULER_NAMES + FIXTURE_SCHEDULERS if fixtures else SCHEDULER_NAMES


def _add_common(
    parser: argparse.ArgumentParser,
    multi_sched: bool = True,
    fixtures: bool = False,
) -> None:
    nargs = "+" if multi_sched else None
    choices = _scheduler_choices(fixtures)
    help_text = "scheduler(s) to run"
    if fixtures:
        help_text += (
            " (fixture names like ecf-nowait run the seeded-violation "
            "variants, e.g. to exercise --check / --obs postmortems)"
        )
    parser.add_argument(
        "--scheduler", nargs=nargs, default=["minrtt", "ecf"] if multi_sched else "ecf",
        choices=choices, help=help_text,
    )
    parser.add_argument("--wifi", type=float, default=1.0, help="WiFi Mbps")
    parser.add_argument("--lte", type=float, default=8.6, help="LTE Mbps")
    parser.add_argument("--seed", type=int, default=0)
    _add_sanitize_flag(parser)


def _add_sanitize_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize", action="store_true",
        help="enable runtime protocol-invariant checks (REPRO_SANITIZE=1)",
    )


def _add_check_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--check", action="store_true",
        help="record an event log per run and fail on temporal property "
        "violations (REPRO_CHECK=1; see repro.analysis.check)",
    )


def _add_perf_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--perf", action="store_true",
        help="attach a per-run perf record (counters + wall time) to every "
        "result (REPRO_PERF=1; see repro.perf)",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs", action="store_true",
        help="enable the flight recorder: failed runs leave a postmortem "
        "bundle and sweeps write a run journal (REPRO_OBS=1; see repro.obs)",
    )
    parser.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="where postmortem bundles and the run journal land "
        "(REPRO_OBS_DIR; default: .repro-obs); implies --obs",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for independent runs (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache; re-runs execute only missing cells",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir (run everything fresh, store nothing)",
    )


def _campaign_runner(
    store, name: str, jobs: int, cache_dir,
    timeout_s=None, retries: int = 1, max_attempts: int = 3,
):
    """One place that maps CLI knobs onto a CampaignRunner."""
    from repro.service import CampaignRunner, InlineBackendConfig, PoolBackendConfig

    if jobs == 1:
        backend = InlineBackendConfig(timeout_s=timeout_s, retries=retries)
    else:
        backend = PoolBackendConfig(jobs=jobs, timeout_s=timeout_s, retries=retries)
    return CampaignRunner(
        store,
        name,
        backend=backend,
        cache_dir=cache_dir if cache_dir is not None else ".repro-cache",
        journal=Path(str(store.path)).with_suffix(".journal.jsonl"),
        max_attempts=max_attempts,
        progress=sys.stderr.isatty(),
    )


def _executor_from_args(args) -> ExperimentExecutor:
    """Build the sweep executor the common flags describe.

    A durable, resumable sweep is ``campaign submit --sweep ...``; pointing
    ``--cache-dir`` at that campaign's cache renders it with every cell a hit.
    """
    return ExperimentExecutor(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=sys.stderr.isatty(),
    )


def cmd_download(args) -> int:
    paths = (wifi_config(args.wifi), lte_config(args.lte))
    print(f"{'scheduler':<10}{'time (s)':>10}{'throughput':>13}")
    for name in args.scheduler:
        result = run_bulk(
            BulkDownloadSpec(
                scheduler=name, path_configs=paths, size=args.size, seed=args.seed
            )
        )
        print(
            f"{name:<10}{result.completion_time:>10.3f}"
            f"{result.throughput_bps / 1e6:>11.2f}Mb"
        )
    return 0


def cmd_streaming(args) -> int:
    ideal = ideal_average_bitrate([args.wifi * 1e6, args.lte * 1e6], VideoManifest())
    print(f"ideal bit rate: {ideal / 1e6:.2f} Mbps")
    print(f"{'scheduler':<10}{'bitrate':>10}{'ratio':>8}{'IW resets':>11}")
    specs = [
        StreamingRunConfig(
            scheduler=name, wifi_mbps=args.wifi, lte_mbps=args.lte,
            video_duration=args.video, seed=args.seed,
        )
        for name in args.scheduler
    ]
    results = _executor_from_args(args).run(specs)
    for name, result in zip(args.scheduler, results):
        bitrate = result.metrics.steady_average_bitrate_bps
        print(
            f"{name:<10}{bitrate / 1e6:>9.2f}M{bitrate / ideal:>8.2f}"
            f"{sum(result.iw_resets_by_interface.values()):>11d}"
        )
    return 0


def cmd_web(args) -> int:
    paths = (wifi_config(args.wifi), lte_config(args.lte))
    print(f"{'scheduler':<10}{'mean ct':>10}{'p95 ct':>9}{'page load':>11}")
    for name in args.scheduler:
        result = run_web(
            WebBrowsingSpec(scheduler=name, path_configs=paths, seed=args.seed)
        )
        cts = result.object_completion_times
        print(
            f"{name:<10}{result.mean_completion_time:>9.3f}s"
            f"{percentile(cts, 95):>8.2f}s{result.page_load_time:>10.2f}s"
        )
    return 0


def cmd_twin(args) -> int:
    import json

    from repro.experiments import twin
    from repro.obs.timeline import twin_timeline_document

    cells = [(w, l) for w in args.wifi for l in args.lte]
    reports = []
    failures = 0
    print(
        f"{'wifi':>6}{'lte':>6}{'decisions':>11}{'replayed':>10}"
        f"{'mean regret':>13}{'worst regret':>14}"
    )
    for wifi, lte in cells:
        spec = BulkDownloadSpec(
            scheduler="ecf",
            path_configs=(wifi_config(wifi), lte_config(lte)),
            size=args.size,
            seed=args.seed,
            timeout=args.timeout,
        )
        if args.verify:
            check = twin.verify_fork_equivalence(
                spec, checkpoint_every=args.checkpoint_every
            )
            if not check["ok"]:
                failures += 1
                print(
                    f"FORK-EQUIVALENCE FAILED wifi={wifi} lte={lte}: "
                    f"{check['baseline_digest']} != {check['replay_digest']}",
                    file=sys.stderr,
                )
            reports.append(check)
            print(
                f"{wifi:>6.1f}{lte:>6.1f}{check['decisions_total']:>11d}"
                f"{'':>10}{'verify ' + ('ok' if check['ok'] else 'FAIL'):>27}"
            )
            continue
        report = twin.twin_report(
            spec,
            checkpoint_every=args.checkpoint_every,
            max_decisions=args.max_decisions,
        )
        reports.append(report)
        deltas = [r["completion_delta"] for r in report["regret"]]
        mean = sum(deltas) / len(deltas) if deltas else 0.0
        # Regret of the counterfactual: negative means flipping that
        # decision would have *finished sooner* than what ECF chose.
        worst = min(deltas, default=0.0)
        print(
            f"{wifi:>6.1f}{lte:>6.1f}{report['decisions_total']:>11d}"
            f"{report['decisions_replayed']:>10d}{mean:>+12.4f}s{worst:>+13.4f}s"
        )
        if args.trace_out:
            trace_path = Path(args.trace_out)
            if len(cells) > 1:
                trace_path = trace_path.with_name(
                    f"{trace_path.stem}-w{wifi:g}-l{lte:g}{trace_path.suffix}"
                )
            trace_path.write_text(json.dumps(twin_timeline_document(report)))
            print(f"wrote {trace_path}")
    if args.output:
        Path(args.output).write_text(
            json.dumps({"kind": "twin_grid", "cells": reports},
                       indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.output}")
    return 1 if failures else 0


def cmd_grid(args) -> int:
    base = StreamingRunConfig(
        scheduler=args.scheduler, video_duration=args.video, seed=args.seed
    )
    grid = streaming_grid(base, executor=_executor_from_args(args))
    ratios = bitrate_ratio_matrix(grid)
    print(f"measured/ideal bit rate, scheduler={args.scheduler}")
    print(format_matrix(ratios, PAPER_BANDWIDTH_GRID_MBPS, PAPER_BANDWIDTH_GRID_MBPS))
    return 0


def cmd_report(args) -> int:
    from pathlib import Path

    from repro.experiments.report import collate_report, default_output_dir

    text = collate_report(default_output_dir())
    if args.output == "-":
        print(text)
    else:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    return 0


def _analyze(command: str, paths, select=None):
    """``run_lint`` for the CLI: outside input that cannot be analyzed
    becomes one ``<command>: ...`` line on stderr and ``None``."""
    from repro.analysis.lint import default_lint_root, run_lint

    try:
        return run_lint(paths or [default_lint_root()], select=select)
    except SyntaxError as err:
        message = f"{err.filename}:{err.lineno}:{err.offset}: syntax error"
    except (OSError, ValueError) as err:
        message = str(err)
    print(f"{command}: {message}", file=sys.stderr)
    return None


def cmd_lint(args) -> int:
    if args.list_rules:
        from repro.analysis.lint import RULES

        for code, (summary, fixit) in sorted(RULES.items()):
            print(f"{code}  {summary}\n        fix: {fixit}")
        return 0
    run = _analyze("lint", args.paths, select=args.select)
    if run is None:
        return 2
    for violation in run.violations:
        print(violation.format())
    print(f"lint: {len(run.project.summaries)} file(s)", file=sys.stderr)
    if run.violations:
        print(f"{len(run.violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


def cmd_state(args) -> int:
    from repro.analysis.state import build_state_model, render_state_model

    run = _analyze("state", args.paths)
    if run is None:
        return 2
    document = render_state_model(build_state_model(run.project))
    if args.output is None or args.output == "-":
        print(document, end="")
    else:
        Path(args.output).write_text(document)
        print(f"state: wrote {args.output}", file=sys.stderr)
    return 0


#: Scenarios `repro check` can run the property catalog over.  The race
#: detector only covers the single-connection ones: web's six connections
#: share links, so same-instant queue arrivals are *semantic* ties that
#: legitimately serve in either order.
CHECK_SCENARIOS = ("dash", "bulk", "web")
RACE_SCENARIOS = ("dash", "bulk")


def _check_scenario(name: str, scheduler: str, args):
    """(runner, spec) for one cell of the check matrix."""
    paths = (wifi_config(args.wifi), lte_config(args.lte))
    if name == "dash":
        from repro.experiments.runner import run_streaming

        return run_streaming, StreamingRunConfig(
            scheduler=scheduler, wifi_mbps=args.wifi, lte_mbps=args.lte,
            video_duration=args.video, seed=args.seed,
        )
    if name == "bulk":
        return run_bulk, BulkDownloadSpec(
            scheduler=scheduler, path_configs=paths, size=args.size, seed=args.seed,
        )
    if name == "web":
        return run_web, WebBrowsingSpec(
            scheduler=scheduler, path_configs=paths, seed=args.seed,
        )
    raise ValueError(f"unknown check scenario {name!r}")


def cmd_check(args) -> int:
    from repro.analysis import check as _check
    from repro.analysis.races import race_check

    failures = 0
    for scenario in args.scenario:
        for scheduler in args.scheduler:
            runner, spec = _check_scenario(scenario, scheduler, args)
            label = f"{scenario}/{scheduler}"
            try:
                _, report = _check.run_with_checks(runner, spec)
            except _check.CheckError as exc:
                failures += 1
                print(f"{label:<22} FAIL")
                for line in str(exc).splitlines():
                    print(f"  {line}")
            else:
                print(
                    f"{label:<22} ok    "
                    f"({len(report.properties_checked)} properties, "
                    f"{report.events_seen} events)"
                )
    if not args.skip_races:
        for scenario in args.scenario:
            if scenario not in RACE_SCENARIOS:
                continue
            for scheduler in args.scheduler:
                runner, spec = _check_scenario(scenario, scheduler, args)
                label = f"races:{scenario}/{scheduler}"
                report = race_check(runner, spec, orders=args.orders)
                if report.ok:
                    print(f"{label:<22} ok    ({report.format()})")
                else:
                    failures += 1
                    print(f"{label:<22} FAIL")
                    for line in report.format().splitlines():
                        print(f"  {line}")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_trace_export(args) -> int:
    import json

    from repro.obs import timeline

    source = timeline.load_export_source(args.source)
    if args.format == "perfetto":
        document = timeline.timeline_document(source["events"], source["traces"])
        if args.output:
            timeline.write_timeline(document, args.output)
            print(f"wrote {args.output} ({len(document['traceEvents'])} trace events)")
        else:
            print(json.dumps(document))
        return 0
    if args.format == "jsonl":
        text = timeline.to_jsonl(source["events"])
    else:  # prom
        text = timeline.prometheus_text(source.get("perf") or {})
    if args.output:
        from pathlib import Path

        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_trace_validate(args) -> int:
    import json
    from pathlib import Path

    from repro.obs import timeline

    document = json.loads(Path(args.document).read_text())
    problems = timeline.validate_trace_events(
        document,
        min_subflow_tracks=args.min_subflow_tracks,
        require_ecf_waits=args.require_ecf_waits,
    )
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(
        f"{args.document}: valid trace-event document "
        f"({len(document.get('traceEvents', []))} events)"
    )
    return 0


def cmd_wild(args) -> int:
    result = run_wild(
        WildStreamingSpec(runs=args.runs, video_duration=args.video),
        executor=_executor_from_args(args),
    )
    print(f"{'run':<5}{'wifi rtt':>10}{'default':>10}{'ecf':>8}")
    for run in result.runs:
        print(
            f"{run.run_index:<5}{run.wifi_config.one_way_delay * 2000:>8.0f}ms"
            f"{run.throughput_mbps('minrtt'):>9.2f}M"
            f"{run.throughput_mbps('ecf'):>7.2f}M"
        )
    return 0


def _campaign_sweep_specs(args) -> List:
    """Shard the requested sweep into its independent job specs."""
    from repro.experiments.grid import (
        PAPER_WGET_GRID_MBPS,
        streaming_grid_specs,
        wget_matrix_specs,
    )

    if args.sweep == "grid":
        wifi = args.wifi_grid or list(PAPER_BANDWIDTH_GRID_MBPS)
        lte = args.lte_grid or list(PAPER_BANDWIDTH_GRID_MBPS)
        specs: List = []
        for name in args.scheduler:
            base = StreamingRunConfig(
                scheduler=name, video_duration=args.video, seed=args.seed
            )
            specs.extend(
                spec
                for _, spec in streaming_grid_specs(base, wifi, lte, args.runs_per_cell)
            )
        return specs
    if args.sweep == "wget":
        wifi = args.wifi_grid or list(PAPER_WGET_GRID_MBPS)
        lte = args.lte_grid or list(PAPER_WGET_GRID_MBPS)
        return [
            spec
            for _, spec in wget_matrix_specs(
                args.scheduler, args.size, wifi, lte, args.seed
            )
        ]
    if args.sweep == "wild":
        return wild_streaming_configs(
            WildStreamingSpec(
                schedulers=tuple(args.scheduler),
                runs=args.runs,
                video_duration=args.video,
                base_seed=args.seed,
            )
        )
    raise ValueError(f"unknown sweep {args.sweep!r}")


def _print_campaign_counts(name: str, counts: dict) -> None:
    total = sum(counts.values())
    states = " ".join(f"{state}={counts[state]}" for state in sorted(counts))
    print(f"campaign {name}: {total} job(s)  {states}")


def cmd_campaign_submit(args) -> int:
    from repro.service import CampaignStore

    specs = _campaign_sweep_specs(args)
    store = CampaignStore(args.db)
    runner = _campaign_runner(
        store, args.name, jobs=args.jobs, cache_dir=args.cache_dir,
        timeout_s=args.timeout, retries=args.retries,
        max_attempts=args.max_attempts,
    )
    added = runner.submit(specs)
    print(f"campaign {args.name}: {added} new job(s) of {len(specs)} submitted")
    if args.no_run:
        _print_campaign_counts(args.name, runner.status())
        return 0
    counts = runner.drain()
    _print_campaign_counts(args.name, counts)
    return 0 if counts.get("failed", 0) == 0 else 1


def cmd_campaign_status(args) -> int:
    import json

    from repro.service import CampaignStore
    from repro.service.daemon import status_document

    with CampaignStore(args.db) as store:
        campaign = store.campaign(args.name)
        if campaign is None:
            known = ", ".join(row.name for row in store.campaigns()) or "(none)"
            print(f"no campaign {args.name!r} in {args.db}; known: {known}",
                  file=sys.stderr)
            return 1
        if getattr(args, "json", False):
            # The same document a `campaign serve` daemon exposes on
            # /status (minus its live rate gauges) -- one schema, two
            # transports.
            print(json.dumps(status_document(store, args.name),
                             indent=2, sort_keys=True))
            return 0
        counts = store.counts(campaign.id)
        _print_campaign_counts(args.name, counts)
        for job in store.jobs(campaign.id, status="failed"):
            line = (
                f"  failed {job.spec_hash[:12]} ({job.kind}, "
                f"attempt {job.attempts}): {job.error_type}: {job.error_message}"
            )
            if job.postmortem:
                line += f"  [postmortem: {job.postmortem}]"
            print(line)
    return 0


def cmd_campaign_fetch(args) -> int:
    import json
    from pathlib import Path

    from repro.experiments.exec import ResultCache
    from repro.service import CampaignStore

    with CampaignStore(args.db) as store:
        campaign = store.campaign(args.name)
        if campaign is None:
            print(f"no campaign {args.name!r} in {args.db}", file=sys.stderr)
            return 1
        cache_dir = args.cache_dir or campaign.cache_dir
        if cache_dir is None:
            print("campaign has no cache dir on record; pass --cache-dir",
                  file=sys.stderr)
            return 1
        cache = ResultCache(cache_dir)
        jobs = store.jobs(campaign.id)
        lines = []
        missing = 0
        for job in jobs:
            if job.status != "done":
                missing += 1
                continue
            entry = cache.get(job.spec_hash)
            if entry is None:
                missing += 1
                continue
            lines.append(json.dumps(
                {"spec_hash": job.spec_hash, "kind": job.kind,
                 "result": entry["result"]},
                sort_keys=True,
            ))
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
        print(f"wrote {len(lines)} result(s) to {args.output}")
    if missing:
        print(f"{missing} job(s) not fetchable (not done or cache entry gone)",
              file=sys.stderr)
    return 0 if missing == 0 else 1


def cmd_campaign_retry(args) -> int:
    from repro.service import CampaignStore

    store = CampaignStore(args.db)
    campaign = store.campaign(args.name)
    if campaign is None:
        print(f"no campaign {args.name!r} in {args.db}", file=sys.stderr)
        return 1
    runner = _campaign_runner(
        store, args.name, jobs=args.jobs,
        cache_dir=args.cache_dir or campaign.cache_dir,
        max_attempts=args.max_attempts,
    )
    requeued = runner.requeue()
    print(f"campaign {args.name}: {requeued} job(s) requeued")
    if args.no_run:
        _print_campaign_counts(args.name, runner.status())
        return 0
    counts = runner.drain()
    _print_campaign_counts(args.name, counts)
    return 0 if counts.get("failed", 0) == 0 else 1


def cmd_campaign_serve(args) -> int:
    import os
    import signal

    from repro.perf import counters as perf_counters
    from repro.service import CampaignStore
    from repro.service.daemon import CampaignDaemon

    # Per-job perf records feed the daemon's events/s gauge and the
    # repro_perf_* counters; pool workers inherit the environment, and
    # REPRO_PERF=0 set by the caller stays the off switch.
    os.environ.setdefault(perf_counters.ENV_VAR, "1")
    store = CampaignStore(args.db)
    campaign = store.campaign(args.name)
    if campaign is None:
        known = ", ".join(row.name for row in store.campaigns()) or "(none)"
        print(f"no campaign {args.name!r} in {args.db}; known: {known}",
              file=sys.stderr)
        return 1
    backend = None
    if args.jobs is not None:
        from repro.service import InlineBackendConfig, PoolBackendConfig

        backend = (InlineBackendConfig() if args.jobs == 1
                   else PoolBackendConfig(jobs=args.jobs))
    daemon = CampaignDaemon(
        store,
        args.name,
        backend=backend,
        cache_dir=args.cache_dir or campaign.cache_dir or ".repro-cache",
        journal=str(Path(str(store.path)).with_suffix(".journal.jsonl")),
        max_attempts=args.max_attempts,
        host=args.host,
        port=args.port,
        poll_interval_s=args.poll_interval,
        journal_max_bytes=args.journal_max_bytes or None,
    )
    daemon.start_http()
    print(
        f"campaign {args.name}: serving /metrics /status /healthz on "
        f"{daemon.endpoint}",
        flush=True,
    )

    def _stop(signum, frame) -> None:
        daemon.stop()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    try:
        doc = daemon.serve(linger=not args.exit_when_done)
    finally:
        daemon.shutdown()
    counts = doc.get("counts", {})
    _print_campaign_counts(args.name, counts)
    return 0 if counts.get("failed", 0) == 0 else 1


def cmd_campaign_watch(args) -> int:
    import time

    from repro.service.daemon import fetch_status, render_watch_line

    if not args.endpoint and not args.name:
        print("watch needs a campaign name or --endpoint URL", file=sys.stderr)
        return 1

    def read_doc() -> dict:
        if args.endpoint:
            return fetch_status(args.endpoint)
        from repro.service import CampaignStore
        from repro.service.daemon import status_document

        with CampaignStore(args.db) as store:
            return status_document(store, args.name)

    live = sys.stdout.isatty() and not args.once
    while True:
        try:
            doc = read_doc()
        except (OSError, KeyError, ValueError) as exc:
            if live:
                print()
            print(f"watch: {exc}", file=sys.stderr)
            return 1
        line = render_watch_line(doc)
        if live:
            sys.stdout.write("\r\x1b[K" + line)
            sys.stdout.flush()
        else:
            print(line, flush=True)
        counts = doc.get("counts", {})
        if args.once or (doc.get("remaining") == 0 and not args.follow):
            if live:
                print()
            return 0 if counts.get("failed", 0) == 0 else 1
        time.sleep(args.interval)


def cmd_metrics_validate(args) -> int:
    from repro.obs.registry import validate_openmetrics

    if args.file == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.file).read_text()
    problems = validate_openmetrics(text)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} problem(s)", file=sys.stderr)
        return 1
    families = sum(1 for line in text.splitlines() if line.startswith("# TYPE "))
    print(f"{args.file}: valid OpenMetrics exposition ({families} families)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ECF (CoNEXT'17) reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("download", help="wget-style single-object download")
    _add_common(p)
    p.add_argument("--size", type=parse_size, default=parse_size("512k"))
    p.set_defaults(func=cmd_download)

    p = sub.add_parser("streaming", help="DASH streaming session")
    _add_common(p, fixtures=True)
    p.add_argument("--video", type=float, default=120.0, help="video seconds")
    _add_executor_flags(p)
    _add_check_flag(p)
    _add_perf_flag(p)
    _add_obs_flags(p)
    p.set_defaults(func=cmd_streaming)

    p = sub.add_parser("web", help="full-page Web browsing")
    _add_common(p)
    p.set_defaults(func=cmd_web)

    p = sub.add_parser("grid", help="6x6 bandwidth-grid heat map")
    p.add_argument("--scheduler", default="ecf", choices=_scheduler_choices())
    p.add_argument("--video", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=0)
    _add_executor_flags(p)
    _add_sanitize_flag(p)
    _add_check_flag(p)
    _add_obs_flags(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser(
        "twin",
        help="counterfactual twin runs: per-decision ECF-vs-minRTT regret "
        "via checkpoint/fork (see repro.experiments.twin)",
    )
    p.add_argument(
        "--wifi", type=float, nargs="+", default=[1.0, 4.2],
        help="WiFi rates (Mbps); crossed with --lte into a grid",
    )
    p.add_argument(
        "--lte", type=float, nargs="+", default=[8.6],
        help="LTE rates (Mbps); crossed with --wifi into a grid",
    )
    p.add_argument("--size", type=parse_size, default=parse_size("256k"))
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument(
        "--max-decisions", type=int, default=None,
        help="replay at most this many decisions per cell (default: all)",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=2000,
        help="events per checkpoint in the recording pass",
    )
    p.add_argument("-o", "--output", default=None, help="write JSON report here")
    p.add_argument(
        "--trace-out", default=None,
        help="write Perfetto counterfactual-span trace(s) here",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="fork-equivalence check only: force the recorded choice and "
        "require a byte-identical result (CI gate)",
    )
    p.set_defaults(func=cmd_twin)

    p = sub.add_parser("wild", help="in-the-wild emulation")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--video", type=float, default=60.0)
    _add_executor_flags(p)
    _add_sanitize_flag(p)
    _add_check_flag(p)
    _add_obs_flags(p)
    p.set_defaults(func=cmd_wild)

    p = sub.add_parser(
        "campaign",
        help="durable sweep campaigns: SQLite job store + cached results "
        "(see repro.service)",
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)

    def _campaign_common(cp, jobs_help: str) -> None:
        cp.add_argument("name", help="campaign name (reopening resumes it)")
        cp.add_argument(
            "--db", default="campaigns.db", metavar="FILE",
            help="SQLite campaign store (default: campaigns.db)",
        )
        cp.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="content-addressed result cache (default: .repro-cache, "
            "or the campaign's recorded cache)",
        )
        cp.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help=jobs_help)
        cp.add_argument(
            "--max-attempts", type=_positive_int, default=3, metavar="N",
            help="per-job attempt budget enforced on requeue (default: 3)",
        )

    cp = campaign_sub.add_parser(
        "submit", help="shard a sweep into jobs and (by default) drain them"
    )
    _campaign_common(cp, "worker processes for the drain (default: 1, inline)")
    cp.add_argument(
        "--sweep", choices=("grid", "wget", "wild"), default="grid",
        help="which sweep to shard into jobs (default: grid)",
    )
    cp.add_argument(
        "--scheduler", nargs="+", default=["ecf"],
        choices=_scheduler_choices(fixtures=True),
        help="scheduler(s) to sweep",
    )
    cp.add_argument("--video", type=float, default=30.0,
                    help="video seconds (grid/wild sweeps)")
    cp.add_argument(
        "--wifi-grid", nargs="+", type=float, default=None, metavar="MBPS",
        help="WiFi bandwidth values (default: the paper's grid)",
    )
    cp.add_argument(
        "--lte-grid", nargs="+", type=float, default=None, metavar="MBPS",
        help="LTE bandwidth values (default: the paper's grid)",
    )
    cp.add_argument("--runs-per-cell", type=_positive_int, default=1,
                    help="seeds per grid cell (default: 1)")
    cp.add_argument(
        "--size", type=parse_size, nargs="+", default=[parse_size("512k")],
        help="object sizes for the wget sweep",
    )
    cp.add_argument("--runs", type=_positive_int, default=9,
                    help="wild-sweep run count (default: 9)")
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--timeout", type=float, default=None, metavar="S",
                    help="per-run wall-clock budget")
    cp.add_argument("--retries", type=int, default=1,
                    help="in-drain retries for a timed-out run (default: 1)")
    cp.add_argument(
        "--no-run", action="store_true",
        help="only register jobs; drain later by re-running submit (or retry)",
    )
    cp.set_defaults(func=cmd_campaign_submit)

    cp = campaign_sub.add_parser(
        "status", help="per-state job counts and failed-job details"
    )
    cp.add_argument("name")
    cp.add_argument("--db", default="campaigns.db", metavar="FILE")
    cp.add_argument(
        "--json", action="store_true",
        help="print the machine-readable status document (the same JSON "
        "a `campaign serve` daemon exposes on /status)",
    )
    cp.set_defaults(func=cmd_campaign_status)

    cp = campaign_sub.add_parser(
        "serve",
        help="long-lived drain loop with an OpenMetrics/JSON telemetry "
        "endpoint (/metrics, /status, /healthz)",
    )
    cp.add_argument("name", help="campaign name (submit jobs first, e.g. "
                    "with submit --no-run)")
    cp.add_argument("--db", default="campaigns.db", metavar="FILE",
                    help="SQLite campaign store (default: campaigns.db)")
    cp.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache (default: the campaign's recorded cache)",
    )
    cp.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="override the stored backend (1 = inline, N = pool; "
        "default: resume the campaign's recorded backend)",
    )
    cp.add_argument(
        "--max-attempts", type=_positive_int, default=3, metavar="N",
        help="per-job attempt budget enforced on requeue (default: 3)",
    )
    cp.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: 127.0.0.1)")
    cp.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="HTTP port (default: 0 = pick a free one, printed at startup)",
    )
    cp.add_argument(
        "--poll-interval", type=float, default=2.0, metavar="S",
        help="sleep between drain iterations (default: 2)",
    )
    cp.add_argument(
        "--exit-when-done", action="store_true",
        help="exit once no jobs remain instead of lingering for more "
        "submissions and late scrapes",
    )
    cp.add_argument(
        "--journal-max-bytes", type=int, default=16 * 1024 * 1024,
        metavar="BYTES",
        help="rotate the drain journal past this size, keeping a tail "
        "(default: 16 MiB; 0 = unbounded)",
    )
    cp.set_defaults(func=cmd_campaign_serve)

    cp = campaign_sub.add_parser(
        "watch", help="live one-line terminal status view of a campaign"
    )
    cp.add_argument("name", nargs="?", default=None,
                    help="campaign name (omit when polling --endpoint)")
    cp.add_argument("--db", default="campaigns.db", metavar="FILE")
    cp.add_argument(
        "--endpoint", default=None, metavar="URL",
        help="poll a running `campaign serve` daemon (http://host:port) "
        "instead of reading the store directly",
    )
    cp.add_argument("--interval", type=float, default=2.0, metavar="S",
                    help="refresh interval (default: 2)")
    cp.add_argument("--once", action="store_true",
                    help="print one status line and exit")
    cp.add_argument(
        "--follow", action="store_true",
        help="keep watching after the campaign finishes",
    )
    cp.set_defaults(func=cmd_campaign_watch)

    cp = campaign_sub.add_parser(
        "fetch", help="export the finished results as JSON lines"
    )
    cp.add_argument("name")
    cp.add_argument("--db", default="campaigns.db", metavar="FILE")
    cp.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="override the campaign's recorded cache dir")
    cp.add_argument("-o", "--output", default="-",
                    help="output file ('-' = stdout)")
    cp.set_defaults(func=cmd_campaign_fetch)

    cp = campaign_sub.add_parser(
        "retry", help="requeue failed jobs (attempt-capped) and drain again"
    )
    _campaign_common(cp, "worker processes for the retry drain (default: 1)")
    cp.add_argument(
        "--no-run", action="store_true",
        help="only requeue; drain later via submit/retry",
    )
    cp.set_defaults(func=cmd_campaign_retry)

    p = sub.add_parser(
        "metrics",
        help="telemetry utilities for the repro.obs.registry metric registry",
    )
    metrics_sub = p.add_subparsers(dest="metrics_command", required=True)
    mv = metrics_sub.add_parser(
        "validate",
        help="structurally validate an OpenMetrics text exposition "
        "(a /metrics scrape body)",
    )
    mv.add_argument("file", help="exposition text file ('-' = stdin)")
    mv.set_defaults(func=cmd_metrics_validate)

    p = sub.add_parser(
        "check",
        help="trace-level conformance: property catalog, differential "
        "oracles, and the event-order race detector",
    )
    p.add_argument(
        "--scheduler", nargs="+", default=["ecf", "minrtt"],
        choices=_scheduler_choices(fixtures=True),
        help="scheduler(s) to check (fixture names like ecf-nowait run the "
        "seeded-violation variants)",
    )
    p.add_argument(
        "--scenario", nargs="+", default=list(CHECK_SCENARIOS),
        choices=CHECK_SCENARIOS, help="scenario matrix to run the catalog over",
    )
    p.add_argument(
        "--orders", type=_positive_int, default=5, metavar="N",
        help="randomized tie-break orders per race-detector scenario (default: 5)",
    )
    p.add_argument(
        "--skip-races", action="store_true",
        help="run only the property catalog, not the race detector",
    )
    p.add_argument("--wifi", type=float, default=8.6, help="WiFi Mbps")
    p.add_argument("--lte", type=float, default=8.6, help="LTE Mbps")
    p.add_argument("--video", type=float, default=30.0, help="DASH video seconds")
    p.add_argument(
        "--size", type=parse_size, default=parse_size("512k"),
        help="bulk download size",
    )
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "lint", help="simulator-specific static analysis (see repro.analysis.lint)"
    )
    p.add_argument(
        "paths", nargs="*",
        help="files or directories (default: the installed repro package)",
    )
    p.add_argument(
        "--select", nargs="+", metavar="CODE", default=None,
        help="restrict to these rule codes (e.g. RPR101 RPR301)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "state",
        help="static state model: ownership graph + snapshot contract "
        "(see repro.analysis.state)",
    )
    p.add_argument(
        "paths", nargs="*",
        help="files or directories (default: the installed repro package)",
    )
    p.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write the state-model JSON to FILE (default: stdout)",
    )
    p.set_defaults(func=cmd_state)

    p = sub.add_parser(
        "trace",
        help="observability timelines: export event logs / postmortem "
        "bundles to Perfetto JSON, JSONL, or OpenMetrics text",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    pe = trace_sub.add_parser(
        "export", help="convert a run or postmortem into a viewable timeline"
    )
    pe.add_argument(
        "source",
        help="postmortem bundle directory, events .jsonl, or a cached/"
        "exported result .json",
    )
    pe.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="output file (default: stdout)",
    )
    pe.add_argument(
        "--format", choices=("perfetto", "jsonl", "prom"), default="perfetto",
        help="perfetto = Chrome trace-event JSON (load at ui.perfetto.dev), "
        "jsonl = flat event records, prom = the run's perf record as the "
        "repro_perf_* OpenMetrics families `campaign serve` exposes",
    )
    pe.set_defaults(func=cmd_trace_export)
    pv = trace_sub.add_parser(
        "validate", help="structurally validate an exported trace-event JSON"
    )
    pv.add_argument("document", help="trace-event JSON file to validate")
    pv.add_argument(
        "--min-subflow-tracks", type=int, default=0, metavar="N",
        help="require at least N per-subflow tracks",
    )
    pv.add_argument(
        "--require-ecf-waits", action="store_true",
        help="require at least one 'ecf wait' duration event",
    )
    pv.set_defaults(func=cmd_trace_validate)

    p = sub.add_parser(
        "report", help="collate benchmarks/output/*.txt into one markdown report"
    )
    p.add_argument("--output", default="-", help="file to write ('-' = stdout)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "sanitize", False):
        import os

        from repro.analysis import sanitize

        # The env var propagates the setting into executor pool workers.
        os.environ[sanitize.ENV_VAR] = "1"
        sanitize.enable()
    if getattr(args, "check", False):
        import os

        from repro.analysis import check

        # Read by the executor around every run -- in-process and in pool
        # workers alike (the pool inherits the environment).
        os.environ[check.ENV_VAR] = "1"
    if getattr(args, "perf", False):
        import os

        from repro.perf import counters as perf_counters

        # Same propagation trick as --sanitize/--check: pool workers
        # inherit the environment and attach a perf record per run.
        os.environ[perf_counters.ENV_VAR] = "1"
    if getattr(args, "obs", False) or getattr(args, "obs_dir", None):
        import os

        from repro.obs import flight as obs_flight

        # --obs-dir implies --obs; both propagate into pool workers, which
        # write postmortem bundles at spec-hash-derived paths under the dir.
        os.environ[obs_flight.ENV_VAR] = "1"
        if getattr(args, "obs_dir", None):
            os.environ[obs_flight.DIR_ENV_VAR] = args.obs_dir
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
