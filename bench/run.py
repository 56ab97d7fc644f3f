#!/usr/bin/env python3
"""The repo's benchmark: seven layer-separating workloads, two ledgers.

    python3 bench/run.py                       # all workloads, both ledgers
    python3 bench/run.py --out A.json          # ... and write the report
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

The last form is the driver's: one workload, and the last line of stdout
is one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``)
holding every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) that ``BENCHMARK.json`` declares.

Protocol.  Per workload: ``setup()`` builds the inputs from ``--seed``;
one warm-up run is discarded; then timed runs go round-robin across the
selected workloads (w1..wN, w1..wN, ...) so host drift lands on all of
them equally.  ``gc.collect()`` before every run, GC left enabled, every
``REPRO_*`` switch off.  Rounds stop after ``--repeats`` rounds, or with
``--seconds`` once every workload has that much timed work (never fewer
than three rounds).

Every timed run is bracketed by the host canary -- a fixed pure-Python
spin loop -- and its wall time is rescaled by ``REFERENCE_CANARY_S /
canary``: the reference box runs a third slower for ten seconds at a time
whenever its neighbours are busy, and the canary slows with it.  Reported
values are medians of the rescaled runs; raw walls stay in the report.
``setup_s`` (rescaled the same way) and ``peak_rss_mb`` come from fresh
child interpreters, run one at a time.  The traced pass (``layers.py``, ``probes.py``) runs after
the timed rounds and never inside them.

Exit status is non-zero when any output check fails.
"""

from __future__ import annotations

import time

#: Set-up time starts here: before anything of ``repro`` is imported.
_T0 = time.perf_counter()

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"bench/run.py: no program to measure: {SRC}/repro is missing")
sys.path.insert(0, SRC)
# Pool workers and child interpreters import ``repro`` too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)

from workloads import NULL_TRACER, WORKLOADS, Outcome  # noqa: E402

#: Fresh interpreters per workload: each yields one ``setup_s`` sample
#: (the first also runs the workload once for ``peak_rss_mb``).  More are
#: started until there are this many, or their set-ups add up to the budget.
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 3.0
#: ``--seconds`` never stops the rounds before this many samples exist.
MIN_ROUNDS = 3
#: Rounds of the untraced baseline a ``--trace 1`` run takes.
TRACE_BASELINE_ROUNDS = 3
#: A run whose canary is this far off the median canary is flagged.
NOISY_RUN = 0.10
#: What the canary reads on the reference box when nothing else runs.
#: Timed metrics are reported as if it always read this; on another box
#: every value scales by one constant, which no comparison notices.
REFERENCE_CANARY_S = 0.107


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def summarize(values: List[float]) -> Dict[str, Any]:
    """One metric's cell in the report: median (the reported figure),
    quartiles, min, n, and the samples themselves (``compare.py`` needs
    them to see whether two sets of runs overlap)."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
        "values": list(values),
    }


def calibration_spin() -> float:
    """Host-noise canary: a fixed pure-Python loop, in seconds.  Touches
    no ``repro`` code, so it moves with the box, never with a change."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i
    return time.perf_counter() - t0


def one_run(workload: Any, state: Any) -> Tuple[float, Outcome]:
    """One timed run and its (untimed) checks.  An exception is a failed
    operation, not a crash of the benchmark."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        raw = workload.run(state, NULL_TRACER)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, Outcome(1, 1, 0, "exception")
    wall = time.perf_counter() - t0
    return wall, workload.check(state, raw)


# ----------------------------------------------------------------------
# Fresh-interpreter children: setup_s and peak_rss_mb
# ----------------------------------------------------------------------


def own_peak_rss_kb() -> int:
    """This process's own high-water mark.  Not ``ru_maxrss``: Linux
    carries that across ``exec``, so a child would start at its parent's
    peak and every workload of a matrix run would read the same."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def child_main(mode: str, name: str, seed: int, workdir: str) -> int:
    workload = WORKLOADS[name]
    state = workload.setup(seed, workdir)
    line: Dict[str, Any] = {"setup_s": time.perf_counter() - _T0}
    if mode == "full":
        _, outcome = one_run(workload, state)
        peak_kb = max(own_peak_rss_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        line.update(
            peak_rss_mb=peak_kb / 1024.0,
            attempted=outcome.attempted,
            failed=outcome.failed,
            digest=outcome.digest,
        )
    print(json.dumps(line))
    return 0


def run_child(mode: str, name: str, seed: int) -> Dict[str, Any]:
    """One child interpreter, bracketed by the canary like a timed run:
    ``setup_scaled_s`` is its ``setup_s`` at the reference box's quiet
    speed (imports are interpreter-bound and slow with the host too)."""
    before = calibration_spin()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", mode,
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170,
    )
    host = (before + calibration_spin()) / 2.0
    if done.returncode != 0:
        raise RuntimeError(f"child {mode} of {name} failed:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    line["setup_scaled_s"] = line["setup_s"] * REFERENCE_CANARY_S / host
    return line


# ----------------------------------------------------------------------
# The two ledgers
# ----------------------------------------------------------------------


@dataclass
class Sample:
    """One timed run.  ``scaled_s`` is ``wall_s`` as the reference box at
    its quiet speed would have read it, judging by the canaries taken
    right before and right after the run."""

    wall_s: float
    scaled_s: float
    outcome: Outcome


def timed_rounds(
    names: List[str], states: Dict[str, Any], seconds: Optional[float], repeats: int
) -> Tuple[Dict[str, List[Sample]], List[float]]:
    """Round-robin timed runs with a canary between any two of them."""
    for name in names:  # warm-up, discarded
        one_run(WORKLOADS[name], states[name])
    samples: Dict[str, List[Sample]] = {name: [] for name in names}
    canaries = [calibration_spin()]
    rounds = 0
    while True:
        for name in names:
            wall, outcome = one_run(WORKLOADS[name], states[name])
            canaries.append(calibration_spin())
            host = (canaries[-2] + canaries[-1]) / 2.0
            samples[name].append(Sample(wall, wall * REFERENCE_CANARY_S / host, outcome))
        rounds += 1
        if seconds is None:
            if rounds >= repeats:
                break
        elif rounds >= MIN_ROUNDS and all(
            sum(s.wall_s for s in samples[name]) >= seconds for name in names
        ):
            break
    return samples, canaries


def checked(outcomes: List[Outcome]) -> Dict[str, Any]:
    """Attempted/failed over ``outcomes``.  A result that differs between
    repeats of one seed counts as a failure."""
    digests = [outcome.digest for outcome in outcomes]
    unstable = sum(1 for digest in digests if digest != digests[0])
    failed = sum(o.failed for o in outcomes) + unstable
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "correct": failed == 0,
        "digest": digests[0],
    }


def end_to_end(name: str, seed: int, samples: List[Sample]) -> Dict[str, Any]:
    """The end-to-end ledger of one workload, checks included."""
    full = run_child("full", name, seed)
    setups = [full]
    while (
        len(setups) < SETUP_SAMPLES
        and sum(child["setup_s"] for child in setups) < SETUP_BUDGET_S
    ):
        setups.append(run_child("setup", name, seed))
    outcomes = [s.outcome for s in samples]
    outcomes.append(Outcome(full["attempted"], full["failed"], 0, full["digest"]))
    entry = checked(outcomes)
    entry["end_to_end"] = {
        "wall_s": summarize([s.scaled_s for s in samples]),
        "payload_mb_per_s": summarize(
            [s.outcome.payload_bytes / 1e6 / s.scaled_s for s in samples]
        ),
        "jobs_per_s": summarize(
            [(s.outcome.attempted - s.outcome.failed) / s.scaled_s for s in samples]
        ),
        "peak_rss_mb": summarize([full["peak_rss_mb"]]),
        "setup_s": summarize([child["setup_scaled_s"] for child in setups]),
    }
    entry["raw_wall_s"] = summarize([s.wall_s for s in samples])
    return entry


def measure(
    names: List[str],
    seed: int,
    seconds: Optional[float],
    repeats: int,
    trace: Optional[int],
    workdir: str,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Run the selected workloads; returns the report and the spans."""
    states = {name: WORKLOADS[name].setup(seed, workdir) for name in names}
    if trace == 1:  # per-layer ledger only: a short untraced baseline
        seconds, repeats = None, TRACE_BASELINE_ROUNDS
    samples, canaries = timed_rounds(names, states, seconds, repeats)
    canary_median = statistics.median(canaries)
    report: Dict[str, Any] = {
        "schema": 1,
        "seed": seed,
        "rounds": len(samples[names[0]]),
        "host": {
            "reference_canary_s": REFERENCE_CANARY_S,
            "calib_s": canaries,
            "noisy_runs": [
                i for i, c in enumerate(canaries)
                if abs(c - canary_median) > NOISY_RUN * canary_median
            ],
        },
        "workloads": {},
    }
    for name in names:
        if trace == 1:
            entry = checked([s.outcome for s in samples[name]])
        else:
            entry = end_to_end(name, seed, samples[name])
        report["workloads"][name] = entry

    spans: List[Dict[str, Any]] = []
    if trace != 0:
        from layers import separation_problems, traced_pass
        from probes import run_probes

        per_workload = {}
        for name in names:
            # What an untraced run would take at the host's speed right now.
            baseline = (
                statistics.median(s.scaled_s for s in samples[name])
                * calibration_spin() / REFERENCE_CANARY_S
            )
            per_workload[name], tracer = traced_pass(WORKLOADS[name], states[name], baseline)
            spans += tracer.spans
        problems = separation_problems(per_workload)
        for problem in problems:
            print(f"bench: layer separation lost: {problem}", file=sys.stderr)
        shared = run_probes(seed, workdir, SRC)
        shared["host.calib_s"] = canary_median
        shared["host.calib_spread"] = (max(canaries) - min(canaries)) / canary_median
        shared["bench.separation_ok"] = int(not problems)
        for name in names:
            report["workloads"][name]["per_layer"] = per_workload[name]
        report["shared_layer"] = shared
        report["separation_ok"] = not problems
        report["separation_problems"] = problems
    return report, spans


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def print_report(report: Dict[str, Any], contract: Dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    e2e_units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for name, entry in report["workloads"].items():
        print(f"== {name}: attempted {entry['attempted']}, failed {entry['failed']}, "
              f"digest {entry['digest'][:16]}")
        for metric, cell in entry.get("end_to_end", {}).items():
            print(f"  {metric:<44} {cell['median']:>14.6g} {e2e_units.get(metric, '?'):<8}"
                  f" q1 {cell['q1']:.6g} q3 {cell['q3']:.6g} min {cell['min']:.6g} n {cell['n']}")
        if "raw_wall_s" in entry:
            print(f"  {'(wall_s before rescaling)':<44} {entry['raw_wall_s']['median']:>14.6g} s")
        for metric, value in entry.get("per_layer", {}).items():
            print(f"  {metric:<44} {value:>14.6g} {layer_units.get(metric, '?')}")
    if "shared_layer" in report:
        print("== probes, on-cost, host (independent of the workload)")
        for metric, value in report["shared_layer"].items():
            print(f"  {metric:<44} {value:>14.6g} {layer_units.get(metric, '?')}")
        print(f"== separation_ok: {str(report['separation_ok']).lower()}")
    noisy = report["host"]["noisy_runs"]
    if noisy:
        print(f"== host canary: {len(noisy)} of {len(report['host']['calib_s'])} readings "
              f"were more than {NOISY_RUN:.0%} off their median -- a noisy box, not a regression")


def driver_line(
    report: Dict[str, Any], name: str, trace: int, contract: Dict[str, Any]
) -> Dict[str, Any]:
    """The one-line result for the driver; refuses to print a set of
    metrics that differs from what ``BENCHMARK.json`` declares."""
    entry = report["workloads"][name]
    if trace == 0:
        declared = contract["end_to_end"]
        values = {m: cell["median"] for m, cell in entry["end_to_end"].items()}
    else:
        declared = contract["per_layer"]
        values = {**entry["per_layer"], **report["shared_layer"]}
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise SystemExit(
            "bench/run.py: metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(values))}"
        )
    return {
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    declared = [w["name"] for w in contract["workloads"]]
    if declared != list(WORKLOADS):
        raise SystemExit("bench/run.py: BENCHMARK.json and workloads.py name different workloads")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=declared,
                        help="run only this workload (repeatable; default: all seven)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: becomes spec.seed of every generated spec")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed rounds when --seconds is not given (never < 5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep taking rounds until each workload has this much timed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end ledger only; 1: per-layer ledger only; default: both")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--trace-out", help="write the spans of the traced pass here")
    parser.add_argument("--child", choices=("setup", "full"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = args.workload or declared

    scratch = os.path.join(BENCH_DIR, ".work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        if args.child:
            return child_main(args.child, names[0], args.seed, workdir)
        report, spans = measure(
            names, args.seed, args.seconds, max(5, args.repeats), args.trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_report(report, contract)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            json.dump(spans, handle)
    if len(names) == 1 and args.trace is not None:
        print(json.dumps(driver_line(report, names[0], args.trace, contract)))
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
