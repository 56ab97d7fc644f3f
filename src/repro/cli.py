"""Command-line interface: run the paper's experiments from a shell.

Examples
--------
::

    python -m repro.cli download --scheduler ecf --size 512k --wifi 1 --lte 10
    python -m repro.cli streaming --scheduler minrtt ecf --wifi 0.3 --lte 8.6
    python -m repro.cli web --scheduler ecf --wifi 1 --lte 10
    python -m repro.cli grid --scheduler ecf --video 30 --jobs 8
    python -m repro.cli wild --runs 5 --jobs 4 --cache-dir .repro-cache
    python -m repro.cli campaign submit fig14 --sweep grid --jobs 4
    python -m repro.cli check             # full conformance matrix
    python -m repro.cli lint src tests    # simulator-specific static checks

The shell is thin and says each thing once:

* **one spec builder per spec type** (``_bulk_spec``, ``_streaming_spec``,
  ``_web_spec``, ``_wild_spec``): every command that runs a workload --
  ``download``, ``streaming``, ``web``, ``grid``, ``wild``, ``twin``, each
  ``check`` scenario, each ``campaign submit --sweep`` kind -- turns its
  flags into a spec there and hands it to the library;
* **one tool-switch table** (``_tool_switches``): ``--sanitize``,
  ``--check``, ``--perf``, ``--obs`` and ``--obs-dir`` are rows of
  ``(flag, env var, metavar, help)`` that the parser and ``main`` both
  loop over; the environment carries a switch into pool workers;
* **one campaign opener** (``_open_campaign``) behind ``campaign
  status|fetch|retry|serve``: it owns ``name``/``--db``/
  ``--cache-dir``, the journal path and the not-found messages.  Only
  ``campaign submit`` creates a store; the others exit 1 on a missing
  one and leave nothing behind;
* **one writer** (``_emit``) for ``-o FILE | stdout`` and **one tail**
  (``_report_problems``) for ``lint`` / ``trace validate``.

Exit codes: 0 success; 1 findings (lint violations, failed checks, an
invalid document) or failed/unfetchable campaign jobs; 2 outside input
that cannot be read -- a usage error, a missing or unparseable file --
as one ``<command>: ...`` line on stderr.

Sweep commands (``grid``, ``streaming``, ``wild``) accept ``--jobs N`` to
fan independent runs out over N worker processes, ``--cache-dir DIR`` to
memoize finished runs on disk (a re-run executes only missing cells), and
``--no-cache`` to ignore a configured cache.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

# Module scope holds what ``build_parser`` reads; each command imports its
# own library, so ``campaign status`` runs no simulator and ``download``
# no campaign service.
from repro.analysis.fixtures import FIXTURE_SCHEDULERS
from repro.core.spec import SCHEDULER_NAMES

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.apps.bulk import BulkDownloadSpec
    from repro.experiments.exec import ExperimentExecutor
    from repro.experiments.runner import StreamingRunConfig
    from repro.experiments.wild import WildStreamingSpec
    from repro.workloads.web import WebBrowsingSpec


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


def _int_at_least(text: str, minimum: int) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


# -- args -> spec: the one place each spec type is built ---------------------
def _path_configs(args) -> tuple:
    from repro.net.profiles import lte_config, wifi_config

    return (wifi_config(args.wifi), lte_config(args.lte))


def _bulk_spec(args, scheduler: str) -> BulkDownloadSpec:
    from repro.apps.bulk import BulkDownloadSpec

    return BulkDownloadSpec(
        scheduler=scheduler, path_configs=_path_configs(args), size=args.size, seed=args.seed
    )


def _streaming_spec(args, scheduler: str) -> StreamingRunConfig:
    from repro.experiments.runner import StreamingRunConfig

    # A bandwidth-grid sweep has no --wifi/--lte: the grid sets every cell's rates.
    rates = {"wifi_mbps": args.wifi, "lte_mbps": args.lte} if hasattr(args, "wifi") else {}
    return StreamingRunConfig(
        scheduler=scheduler, video_duration=args.video, seed=args.seed, **rates
    )


def _web_spec(args, scheduler: str) -> WebBrowsingSpec:
    from repro.workloads.web import WebBrowsingSpec

    return WebBrowsingSpec(scheduler=scheduler, path_configs=_path_configs(args), seed=args.seed)


def _wild_spec(args) -> WildStreamingSpec:
    from repro.experiments.wild import WildStreamingSpec

    spec = WildStreamingSpec(runs=args.runs, video_duration=args.video)
    # `wild` has neither flag and keeps the paper's pair and seed.
    if hasattr(args, "seed"):
        spec = replace(spec, schedulers=tuple(args.scheduler), base_seed=args.seed)
    return spec


# -- shared tails ---------------------------------------------------------------
def _emit(text: str, output: Optional[str], wrote: Optional[str] = None) -> int:
    """The ``-o FILE | stdout`` writer: ``None`` and ``-`` mean stdout;
    anything else is a file (parents created) and one ``wrote ...`` line."""
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).parent.mkdir(parents=True, exist_ok=True)
        Path(output).write_text(text)
        print(wrote or f"wrote {output}")
    return 0


def _read(command: str, load: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``load(*args, **kwargs)`` over outside input.  What cannot be read
    or parsed is one ``<command>: ...`` line on stderr and ``None`` (the
    caller exits 2), never a traceback."""
    try:
        return load(*args, **kwargs)
    except SyntaxError as err:
        message = f"{err.filename}:{err.lineno}:{err.offset}: syntax error"
    except (OSError, ValueError) as err:  # ValueError: not JSON, unknown rule, bad shape
        message = str(err)
    print(f"{command}: {message}", file=sys.stderr)
    return None


def _report_problems(problems: Sequence[Any], noun: str = "problem") -> int:
    """Print each finding on stdout and the count on stderr; exit code 1
    if there were any."""
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} {noun}(s)", file=sys.stderr)
    return 1 if problems else 0


def _executor_from_args(args) -> ExperimentExecutor:
    """Build the sweep executor the common flags describe.

    A durable, resumable sweep is ``campaign submit --sweep ...``; pointing
    ``--cache-dir`` at that campaign's cache renders it with every cell a hit.
    """
    from repro.experiments.exec import ExperimentExecutor

    return ExperimentExecutor(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=sys.stderr.isatty(),
    )


# -- experiment commands --------------------------------------------------------
def cmd_download(args) -> int:
    from repro.apps.bulk import run_bulk

    print(f"{'scheduler':<10}{'time (s)':>10}{'throughput':>13}")
    for name in args.scheduler:
        result = run_bulk(_bulk_spec(args, name))
        print(
            f"{name:<10}{result.completion_time:>10.3f}"
            f"{result.throughput_bps / 1e6:>11.2f}Mb"
        )
    return 0


def cmd_streaming(args) -> int:
    from repro.apps.dash.media import VideoManifest
    from repro.experiments.ideal import ideal_average_bitrate

    ideal = ideal_average_bitrate([args.wifi * 1e6, args.lte * 1e6], VideoManifest())
    print(f"ideal bit rate: {ideal / 1e6:.2f} Mbps")
    print(f"{'scheduler':<10}{'bitrate':>10}{'ratio':>8}{'IW resets':>11}")
    specs = [_streaming_spec(args, name) for name in args.scheduler]
    results = _executor_from_args(args).run(specs)
    for name, result in zip(args.scheduler, results):
        bitrate = result.metrics.steady_average_bitrate_bps
        print(
            f"{name:<10}{bitrate / 1e6:>9.2f}M{bitrate / ideal:>8.2f}"
            f"{sum(result.iw_resets_by_interface.values()):>11d}"
        )
    return 0


def cmd_web(args) -> int:
    from repro.metrics.stats import percentile
    from repro.workloads.web import run_web

    print(f"{'scheduler':<10}{'mean ct':>10}{'p95 ct':>9}{'page load':>11}")
    for name in args.scheduler:
        result = run_web(_web_spec(args, name))
        cts = result.object_completion_times
        print(
            f"{name:<10}{result.mean_completion_time:>9.3f}s"
            f"{percentile(cts, 95):>8.2f}s{result.page_load_time:>10.2f}s"
        )
    return 0


def cmd_twin(args) -> int:
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
        cell = argparse.Namespace(**{**vars(args), "wifi": wifi, "lte": lte})
        spec = replace(_bulk_spec(cell, "ecf"), timeout=args.timeout)
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
            _emit(json.dumps(twin_timeline_document(report)), str(trace_path))
    if args.output:
        document = {"kind": "twin_grid", "cells": reports}
        _emit(json.dumps(document, indent=2, sort_keys=True) + "\n", args.output)
    return 1 if failures else 0


def cmd_grid(args) -> int:
    from repro.experiments.grid import (
        PAPER_BANDWIDTH_GRID_MBPS,
        bitrate_ratio_matrix,
        format_matrix,
        streaming_grid,
    )

    grid = streaming_grid(
        _streaming_spec(args, args.scheduler), executor=_executor_from_args(args)
    )
    ratios = bitrate_ratio_matrix(grid)
    print(f"measured/ideal bit rate, scheduler={args.scheduler}")
    print(format_matrix(ratios, PAPER_BANDWIDTH_GRID_MBPS, PAPER_BANDWIDTH_GRID_MBPS))
    return 0


def cmd_wild(args) -> int:
    from repro.experiments.wild import run_wild

    result = run_wild(_wild_spec(args), executor=_executor_from_args(args))
    print(f"{'run':<5}{'wifi rtt':>10}{'default':>10}{'ecf':>8}")
    for run in result.runs:
        print(
            f"{run.run_index:<5}{run.wifi_config.one_way_delay * 2000:>8.0f}ms"
            f"{run.throughput_mbps('minrtt'):>9.2f}M"
            f"{run.throughput_mbps('ecf'):>7.2f}M"
        )
    return 0


def cmd_report(args) -> int:
    from repro.experiments.report import collate_report, default_output_dir

    text = collate_report(default_output_dir())
    # On stdout a blank line closes the report; a file holds the report alone.
    return _emit(text + "\n" if args.output == "-" else text, args.output)


# -- analysis commands ----------------------------------------------------------
def cmd_lint(args) -> int:
    from repro.analysis.lint import RULES, default_lint_root, iter_python_files, lint_paths

    if args.list_rules:
        for code, (summary, fixit) in sorted(RULES.items()):
            print(f"{code}  {summary}\n        fix: {fixit}")
        return 0
    paths = [Path(p) for p in args.paths or [default_lint_root()]]
    files = _read("lint", iter_python_files, paths)
    if files is None:
        return 2
    violations = _read("lint", lint_paths, files, select=args.select)
    if violations is None:
        return 2
    print(f"lint: {len(files)} file(s)", file=sys.stderr)
    return _report_problems([v.format() for v in violations], noun="violation")


def _streaming_4sf_spec(args, scheduler: str) -> StreamingRunConfig:
    """Fig. 15's world: four subflows per interface, so same-instant ACKs
    on sibling paths are routine."""
    return replace(_streaming_spec(args, scheduler), subflows_per_interface=4)


#: Scenarios `repro check` can run the property catalog over: name ->
#: args -> spec, each run through its kind's runner (``run_spec``).  The
#: race detector covers every one: an instant's events run in
#: owner-construction order, so a result must not depend on the order in
#: which same-instant events were scheduled.
CHECK_SCENARIOS = {
    "dash": _streaming_spec,
    "dash4sf": _streaming_4sf_spec,
    "bulk": _bulk_spec,
    "web": _web_spec,
}


def _check_row(label: str, ok: bool, detail: str) -> int:
    """Print one cell of the check matrix; returns how many failed (0 or 1)."""
    if ok:
        print(f"{label:<22} ok    ({detail})")
        return 0
    print(f"{label:<22} FAIL")
    for line in detail.splitlines():
        print(f"  {line}")
    return 1


def cmd_check(args) -> int:
    from repro.analysis import check as _check
    from repro.analysis.races import race_check
    from repro.experiments.spec import run_spec

    failures = 0
    cells = [(scenario, name) for scenario in args.scenario for name in args.scheduler]
    for scenario, name in cells:
        try:
            _, report = _check.run_with_checks(run_spec, CHECK_SCENARIOS[scenario](args, name))
        except _check.CheckError as exc:
            failures += _check_row(f"{scenario}/{name}", False, str(exc))
        else:
            detail = f"{len(report.properties_checked)} properties, {report.events_seen} events"
            failures += _check_row(f"{scenario}/{name}", True, detail)
    for scenario, name in [] if args.skip_races else cells:
        report = race_check(run_spec, CHECK_SCENARIOS[scenario](args, name), orders=args.orders)
        failures += _check_row(f"races:{scenario}/{name}", report.ok, report.format())
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
    return 1 if failures else 0


def cmd_trace_export(args) -> int:
    from repro.obs import timeline

    source = _read("trace export", timeline.load_export_source, args.source)
    if source is None:
        return 2
    document = timeline.timeline_document(source["events"], source["traces"])
    if args.output:
        timeline.write_timeline(document, args.output)
        print(f"wrote {args.output} ({len(document['traceEvents'])} trace events)")
    else:
        print(json.dumps(document))
    return 0


def cmd_trace_validate(args) -> int:
    from repro.obs import timeline

    document = _read(
        "trace validate", lambda: json.loads(Path(args.document).read_text())
    )
    if document is None:
        return 2
    problems = timeline.validate_trace_events(
        document,
        min_subflow_tracks=args.min_subflow_tracks,
        require_ecf_waits=args.require_ecf_waits,
    )
    if not problems:
        print(
            f"{args.document}: valid trace-event document "
            f"({len(document.get('traceEvents', []))} events)"
        )
    return _report_problems(problems)


# -- campaign commands ----------------------------------------------------------
def _backend(jobs: Optional[int], **knobs: Any):
    """``--jobs`` as a backend config: 1 is inline, N a pool of N; ``None``
    (``serve`` without ``--jobs``) resumes the campaign's recorded one."""
    from repro.service import InlineBackendConfig, PoolBackendConfig

    if jobs is None:
        return None
    return InlineBackendConfig(**knobs) if jobs == 1 else PoolBackendConfig(jobs=jobs, **knobs)


def _open_campaign(args, create: bool = False, **runner_kwargs: Any):
    """The one way a campaign command reaches its campaign: a
    :class:`~repro.service.CampaignRunner` on ``name`` in ``--db``, with
    ``--cache-dir`` (else the campaign's recorded cache, else
    ``.repro-cache``) and the journal beside the store.

    Only ``create=True`` (``campaign submit``) may create the store or the
    campaign.  Otherwise a missing one is a line on stderr and ``None``
    (the caller exits 1), and nothing is left on disk.
    """
    from repro.service import CampaignRunner, CampaignStore

    if not create and not Path(args.db).is_file():
        print(f"campaign store {args.db} does not exist", file=sys.stderr)
        return None
    store = CampaignStore(args.db)
    campaign = store.campaign(args.name)
    if campaign is None and not create:
        known = ", ".join(row.name for row in store.campaigns()) or "(none)"
        print(f"no campaign {args.name!r} in {args.db}; known: {known}", file=sys.stderr)
        store.close()
        return None
    recorded = None if campaign is None else campaign.cache_dir
    return CampaignRunner(
        store,
        args.name,
        cache_dir=getattr(args, "cache_dir", None) or recorded or ".repro-cache",
        journal=store.path.with_suffix(".journal.jsonl"),
        progress=sys.stderr.isatty(),
        **runner_kwargs,
    )


def _print_campaign_counts(name: str, counts: dict) -> int:
    """One ``campaign NAME: ...`` line; exit code 1 if any job has failed."""
    total = sum(counts.values())
    states = " ".join(f"{state}={counts[state]}" for state in sorted(counts))
    print(f"campaign {name}: {total} job(s)  {states}")
    return 0 if counts.get("failed", 0) == 0 else 1


def _drain(runner, args) -> int:
    """What ``submit`` and ``retry`` end with: drain unless ``--no-run``."""
    if args.no_run:
        _print_campaign_counts(args.name, runner.status())
        return 0
    return _print_campaign_counts(args.name, runner.drain())


def _campaign_sweep_specs(args) -> List:
    """Shard the requested sweep into its independent job specs."""
    from repro.experiments.grid import (
        PAPER_BANDWIDTH_GRID_MBPS,
        PAPER_WGET_GRID_MBPS,
        streaming_grid_specs,
        wget_matrix_specs,
    )
    from repro.experiments.wild import wild_streaming_configs

    if args.sweep == "wild":
        return wild_streaming_configs(_wild_spec(args))
    paper = PAPER_BANDWIDTH_GRID_MBPS if args.sweep == "grid" else PAPER_WGET_GRID_MBPS
    wifi = args.wifi_grid or list(paper)
    lte = args.lte_grid or list(paper)
    if args.sweep == "wget":
        cells = wget_matrix_specs(args.scheduler, args.size, wifi, lte, args.seed)
    else:
        cells = [
            cell
            for name in args.scheduler
            for cell in streaming_grid_specs(
                _streaming_spec(args, name), wifi, lte, args.runs_per_cell
            )
        ]
    return [spec for _, spec in cells]


def cmd_campaign_submit(args) -> int:
    specs = _campaign_sweep_specs(args)
    runner = _open_campaign(
        args,
        create=True,
        backend=_backend(args.jobs, timeout_s=args.timeout, retries=args.retries),
        max_attempts=args.max_attempts,
    )
    added = runner.submit(specs)
    print(f"campaign {args.name}: {added} new job(s) of {len(specs)} submitted")
    return _drain(runner, args)


def cmd_campaign_status(args) -> int:
    from repro.service.daemon import status_document

    runner = _open_campaign(args)
    if runner is None:
        return 1
    with runner.store as store:
        if args.json:
            # The same document a `campaign serve` daemon exposes on
            # /status (minus its live rates) -- one schema, two
            # transports.
            print(json.dumps(status_document(store, args.name), indent=2, sort_keys=True))
            return 0
        _print_campaign_counts(args.name, runner.status())
        for job in store.jobs(runner.campaign_id, status="failed"):
            line = (
                f"  failed {job.spec_hash[:12]} ({job.kind}, "
                f"attempt {job.attempts}): {job.error_type}: {job.error_message}"
            )
            if job.postmortem:
                line += f"  [postmortem: {job.postmortem}]"
            print(line)
    return 0


def cmd_campaign_fetch(args) -> int:
    runner = _open_campaign(args)
    if runner is None:
        return 1
    lines, missing = [], 0
    with runner.store:
        for key, kind, found in runner.entries():
            if isinstance(found, Exception):
                missing += 1
                continue
            record = {"spec_hash": key, "kind": kind, "result": found["result"]}
            lines.append(json.dumps(record, sort_keys=True) + "\n")
    _emit("".join(lines), args.output, f"wrote {len(lines)} result(s) to {args.output}")
    if missing:
        print(f"{missing} job(s) not fetchable (not done or cache entry gone)",
              file=sys.stderr)
    return 0 if missing == 0 else 1


def cmd_campaign_retry(args) -> int:
    runner = _open_campaign(
        args, backend=_backend(args.jobs), max_attempts=args.max_attempts
    )
    if runner is None:
        return 1
    print(f"campaign {args.name}: {runner.requeue()} job(s) requeued")
    return _drain(runner, args)


def cmd_campaign_serve(args) -> int:
    import signal

    from repro.perf import counters as perf_counters
    from repro.service.daemon import CampaignDaemon

    runner = _open_campaign(
        args, backend=_backend(args.jobs), max_attempts=args.max_attempts
    )
    if runner is None:
        return 1
    # Per-job perf records feed the daemon's events/s rate; pool workers
    # inherit the environment, and REPRO_PERF=0 set by the caller stays
    # the off switch.
    os.environ.setdefault(perf_counters.ENV_VAR, "1")
    daemon = CampaignDaemon(
        runner.store,
        args.name,
        backend=runner.backend_config,
        cache_dir=runner.cache_dir,
        journal=runner.journal_path,
        max_attempts=runner.max_attempts,
        host=args.host,
        port=args.port,
        poll_interval_s=args.poll_interval,
        journal_max_bytes=args.journal_max_bytes or None,
    )
    daemon.start_http()
    print(
        f"campaign {args.name}: serving /status /healthz on "
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
    return _print_campaign_counts(args.name, doc.get("counts", {}))


# -- the parser -----------------------------------------------------------------
#: ``--scheduler`` choices for the commands that also offer the fixture
#: schedulers (seeded-violation variants like ``ecf-nowait``): named once,
#: so they are offered -- or hidden -- identically everywhere.
_WITH_FIXTURES = SCHEDULER_NAMES + FIXTURE_SCHEDULERS


def _tool_switches() -> tuple:
    """The tool switches, declared once: ``(flag, env var, metavar, help)``.

    The parser adds a command's switches from these rows and ``main``
    exports the ones that were given; the environment carries them into
    executor pool workers, which inherit it.  ``metavar`` is ``None`` for
    an on/off switch (exported as ``1``) and names the value otherwise.
    Each env var is the tool's own ``ENV_VAR`` (``DIR_ENV_VAR``), spelled
    out so that parsing loads no tool.
    """
    return (
        ("--sanitize", "REPRO_SANITIZE", None,
         "enable runtime protocol-invariant checks (REPRO_SANITIZE=1)"),
        ("--check", "REPRO_CHECK", None,
         "record an event log per run and fail on temporal property "
         "violations (REPRO_CHECK=1; see repro.analysis.check)"),
        ("--perf", "REPRO_PERF", None,
         "attach a per-run perf record (counters + wall time) to every "
         "result (REPRO_PERF=1; see repro.perf)"),
        ("--obs", "REPRO_OBS", None,
         "enable the flight recorder: failed runs leave a postmortem "
         "bundle and sweeps write a run journal (REPRO_OBS=1; see repro.obs)"),
        ("--obs-dir", "REPRO_OBS_DIR", "DIR",
         "where postmortem bundles and the run journal land "
         "(REPRO_OBS_DIR; default: .repro-obs); implies --obs"),
    )


def _add_tool_switches(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag, _, metavar, help_text in _tool_switches():
        if flag in flags:
            kind = {"action": "store_true"} if metavar is None else {"metavar": metavar}
            parser.add_argument(flag, help=help_text, **kind)


def _add_common(parser: argparse.ArgumentParser, fixtures: bool = False) -> None:
    help_text = "scheduler(s) to run"
    if fixtures:
        help_text += (
            " (fixture names like ecf-nowait run the seeded-violation "
            "variants, e.g. to exercise --check / --obs postmortems)"
        )
    parser.add_argument("--scheduler", nargs="+", default=["minrtt", "ecf"], help=help_text,
                        choices=_WITH_FIXTURES if fixtures else SCHEDULER_NAMES)
    parser.add_argument("--wifi", type=float, default=1.0, help="WiFi Mbps")
    parser.add_argument("--lte", type=float, default=8.6, help="LTE Mbps")
    parser.add_argument("--seed", type=int, default=0)
    _add_tool_switches(parser, "--sanitize")


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for independent runs (default: 1, serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result cache; re-runs execute only missing cells")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir (run everything fresh, store nothing)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ECF (CoNEXT'17) reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name: str, func, summary: str) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    p = command(sub, "download", cmd_download, "wget-style single-object download")
    _add_common(p)
    p.add_argument("--size", type=parse_size, default=parse_size("512k"))

    p = command(sub, "streaming", cmd_streaming, "DASH streaming session")
    _add_common(p, fixtures=True)
    p.add_argument("--video", type=float, default=120.0, help="video seconds")
    _add_executor_flags(p)
    _add_tool_switches(p, "--check", "--perf", "--obs", "--obs-dir")

    p = command(sub, "web", cmd_web, "full-page Web browsing")
    _add_common(p)

    p = command(sub, "grid", cmd_grid, "6x6 bandwidth-grid heat map")
    p.add_argument("--scheduler", default="ecf", choices=SCHEDULER_NAMES)
    p.add_argument("--video", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=0)
    _add_executor_flags(p)
    _add_tool_switches(p, "--sanitize", "--check", "--obs", "--obs-dir")

    p = command(
        sub, "twin", cmd_twin,
        "counterfactual twin runs: per-decision ECF-vs-minRTT regret "
        "via checkpoint/fork (see repro.experiments.twin)",
    )
    p.add_argument("--wifi", type=float, nargs="+", default=[1.0, 4.2],
                   help="WiFi rates (Mbps); crossed with --lte into a grid")
    p.add_argument("--lte", type=float, nargs="+", default=[8.6],
                   help="LTE rates (Mbps); crossed with --wifi into a grid")
    p.add_argument("--size", type=parse_size, default=parse_size("256k"))
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--max-decisions", type=int, default=None,
                   help="replay at most this many decisions per cell (default: all)")
    p.add_argument("--checkpoint-every", type=int, default=2000,
                   help="events per checkpoint in the recording pass")
    p.add_argument("-o", "--output", default=None, help="write JSON report here")
    p.add_argument("--trace-out", default=None,
                   help="write Perfetto counterfactual-span trace(s) here")
    p.add_argument("--verify", action="store_true",
                   help="fork-equivalence check only: force the recorded choice and "
                   "require a byte-identical result (CI gate)")

    p = command(sub, "wild", cmd_wild, "in-the-wild emulation")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--video", type=float, default=60.0)
    _add_executor_flags(p)
    _add_tool_switches(p, "--sanitize", "--check", "--obs", "--obs-dir")

    p = sub.add_parser(
        "campaign",
        help="durable sweep campaigns: SQLite job store + cached results "
        "(see repro.service)",
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)

    def campaign(name: str, func, summary: str, cache_dir: bool = True,
                 help: str = "campaign name"):
        """What ``_open_campaign`` reads: ``name``, ``--db``, ``--cache-dir``."""
        cp = command(campaign_sub, name, func, summary)
        cp.add_argument("name", help=help)
        cp.add_argument("--db", default="campaigns.db", metavar="FILE",
                        help="SQLite campaign store (default: campaigns.db)")
        if cache_dir:
            cp.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="content-addressed result cache (default: the campaign's "
                            "recorded cache, else .repro-cache)")
        return cp

    def drain_flags(cp, jobs_default: Optional[int], jobs_help: str) -> None:
        cp.add_argument("--jobs", type=_positive_int, default=jobs_default, metavar="N",
                        help=jobs_help)
        cp.add_argument("--max-attempts", type=_positive_int, default=3, metavar="N",
                        help="per-job attempt budget enforced on requeue (default: 3)")

    cp = campaign("submit", cmd_campaign_submit,
                  "shard a sweep into jobs and (by default) drain them",
                  help="campaign name (reopening resumes it)")
    drain_flags(cp, 1, "worker processes for the drain (default: 1, inline)")
    cp.add_argument("--sweep", choices=("grid", "wget", "wild"), default="grid",
                    help="which sweep to shard into jobs (default: grid)")
    cp.add_argument("--scheduler", nargs="+", default=["ecf"], choices=_WITH_FIXTURES,
                    help="scheduler(s) to sweep")
    cp.add_argument("--video", type=float, default=30.0, help="video seconds (grid/wild sweeps)")
    cp.add_argument("--wifi-grid", nargs="+", type=float, default=None, metavar="MBPS",
                    help="WiFi bandwidth values (default: the paper's grid)")
    cp.add_argument("--lte-grid", nargs="+", type=float, default=None, metavar="MBPS",
                    help="LTE bandwidth values (default: the paper's grid)")
    cp.add_argument("--runs-per-cell", type=_positive_int, default=1,
                    help="seeds per grid cell (default: 1)")
    cp.add_argument("--size", type=parse_size, nargs="+", default=[parse_size("512k")],
                    help="object sizes for the wget sweep")
    cp.add_argument("--runs", type=_positive_int, default=9,
                    help="wild-sweep run count (default: 9)")
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--timeout", type=float, default=None, metavar="S",
                    help="per-run wall-clock budget")
    cp.add_argument("--retries", type=_non_negative_int, default=1,
                    help="in-drain retries for a timed-out run (default: 1)")
    cp.add_argument("--no-run", action="store_true",
                    help="only register jobs; drain later by re-running submit (or retry)")

    cp = campaign("status", cmd_campaign_status,
                  "per-state job counts and failed-job details", cache_dir=False)
    cp.add_argument("--json", action="store_true",
                    help="print the machine-readable status document (the same JSON "
                    "a `campaign serve` daemon exposes on /status)")

    cp = campaign("serve", cmd_campaign_serve,
                  "long-lived drain loop with a JSON status endpoint "
                  "(/status, /healthz)",
                  help="campaign name (submit jobs first, e.g. with submit --no-run)")
    drain_flags(cp, None, "override the stored backend (1 = inline, N = pool; "
                "default: resume the campaign's recorded backend)")
    cp.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    cp.add_argument("--port", type=int, default=0, metavar="PORT",
                    help="HTTP port (default: 0 = pick a free one, printed at startup)")
    cp.add_argument("--poll-interval", type=float, default=2.0, metavar="S",
                    help="sleep between drain iterations (default: 2)")
    cp.add_argument("--exit-when-done", action="store_true",
                    help="exit once no jobs remain instead of lingering for more "
                    "submissions and late /status reads")
    cp.add_argument("--journal-max-bytes", type=int, default=16 * 1024 * 1024, metavar="BYTES",
                    help="rotate the drain journal past this size, keeping a tail "
                    "(default: 16 MiB; 0 = unbounded)")

    cp = campaign("fetch", cmd_campaign_fetch, "export the finished results as JSON lines")
    cp.add_argument("-o", "--output", default="-", help="output file ('-' = stdout)")

    cp = campaign("retry", cmd_campaign_retry,
                  "requeue failed jobs (attempt-capped) and drain again",
                  help="campaign name (reopening resumes it)")
    drain_flags(cp, 1, "worker processes for the retry drain (default: 1)")
    cp.add_argument("--no-run", action="store_true",
                    help="only requeue; drain later via submit/retry")

    p = command(
        sub, "check", cmd_check,
        "trace-level conformance: property catalog, differential "
        "oracles, and the event-order race detector",
    )
    p.add_argument("--scheduler", nargs="+", default=["ecf", "minrtt"], choices=_WITH_FIXTURES,
                   help="scheduler(s) to check (fixture names like ecf-nowait run the "
                   "seeded-violation variants)")
    p.add_argument("--scenario", nargs="+", default=list(CHECK_SCENARIOS),
                   choices=tuple(CHECK_SCENARIOS), help="scenario matrix to run the catalog over")
    p.add_argument("--orders", type=_positive_int, default=5, metavar="N",
                   help="randomized tie-break orders per race-detector scenario (default: 5)")
    p.add_argument("--skip-races", action="store_true",
                   help="run only the property catalog, not the race detector")
    p.add_argument("--wifi", type=float, default=8.6, help="WiFi Mbps")
    p.add_argument("--lte", type=float, default=8.6, help="LTE Mbps")
    p.add_argument("--video", type=float, default=30.0, help="DASH video seconds")
    p.add_argument("--size", type=parse_size, default=parse_size("512k"),
                   help="bulk download size")
    p.add_argument("--seed", type=int, default=7)

    p = command(sub, "lint", cmd_lint,
                "simulator-specific static analysis (see repro.analysis.lint)")
    p.add_argument("paths", nargs="*",
                   help="files or directories (default: the installed repro package)")
    p.add_argument("--select", nargs="+", metavar="CODE", default=None,
                   help="restrict to these rule codes (e.g. RPR101 RPR301)")
    p.add_argument("--list-rules", action="store_true", help="print the rule catalog and exit")

    p = sub.add_parser(
        "trace",
        help="observability timelines: export event logs / postmortem "
        "bundles to Perfetto JSON",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p = command(trace_sub, "export", cmd_trace_export,
                "convert a run or postmortem into a Perfetto (Chrome "
                "trace-event JSON) timeline")
    p.add_argument("source", help="postmortem bundle directory, events .jsonl, or a cached/"
                   "exported result .json")
    p.add_argument("-o", "--output", default=None, metavar="FILE",
                   help="output file (default: stdout)")
    p = command(trace_sub, "validate", cmd_trace_validate,
                "structurally validate an exported trace-event JSON")
    p.add_argument("document", help="trace-event JSON file to validate")
    p.add_argument("--min-subflow-tracks", type=int, default=0, metavar="N",
                   help="require at least N per-subflow tracks")
    p.add_argument("--require-ecf-waits", action="store_true",
                   help="require at least one 'ecf wait' duration event")

    p = command(sub, "report", cmd_report,
                "collate benchmarks/output/*.txt into one markdown report")
    p.add_argument("--output", default="-", help="file to write ('-' = stdout)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "obs_dir", None):
        args.obs = True  # --obs-dir implies --obs
    for flag, env_var, _, _ in _tool_switches():
        value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        if value:
            os.environ[env_var] = "1" if value is True else value
    if getattr(args, "sanitize", False):
        from repro.analysis import sanitize

        # This process read REPRO_SANITIZE when the module was imported,
        # before the flag was parsed.
        sanitize.enable()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
