#!/usr/bin/env python3
"""Compare two reports of ``bench/run.py --out``: A (parent) against B.

    python3 bench/compare.py A.json B.json

One row per workload x end-to-end metric: both medians with their
quartiles, the delta as a share of A's median, the bound from
``BENCHMARK.json`` and a verdict:

``worse``       B's median is worse than A's by more than the bound.
``better``      B's quartile range lies wholly on the good side of A's and
                the medians differ by more than A's own spread.
``unresolved``  A's quartile spread exceeds the bound and the two sets of
                runs overlap: the benchmark cannot tell on this box.
``same``        anything else.

Below the table, per workload: ``sim_identical`` (the result digests are
equal -- information, a correctness fix may move a digest) and whether
every deterministic count of the traced pass is identical.

Exit status is non-zero on any ``worse`` or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-layer metrics that repeat exactly for a seed.  Times, shares of
#: wall time, GC figures and probes are not in this list.
DETERMINISTIC = (
    "sim.engine.events",
    "sim.engine.timers_scheduled",
    "sim.engine.timers_cancelled",
    "sim.engine.stale_pops",
    "sim.engine.heap_compactions",
    "sim.engine.events_per_segment",
    "net.link.packets_in",
    "net.link.packets_delivered",
    "net.link.packets_dropped",
    "net.link.bytes_delivered",
    "core.scheduler.decisions",
    "core.scheduler.waits",
    "core.scheduler.assign_ratio",
    "core.scheduler.decisions_per_segment",
    "tcp.subflow.segments_retransmitted",
    "tcp.subflow.rto_events",
    "tcp.subflow.fast_retransmits",
    "tcp.subflow.idle_resets",
    "mptcp.connection.reinjections",
    "mptcp.receiver.ooo_delay_max_s",
    "sim.snapshot.nodes",
    "sim.snapshot.pickle_bytes",
    "sim.snapshot.fork_events",
)


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, delta)`` for one metric; ``delta`` is (B - A) / A."""
    sign = 1.0 if better == "lower" else -1.0
    base = a["median"]
    delta = (b["median"] - base) / base if base else 0.0
    worse_by = sign * delta
    spread = (a["q3"] - a["q1"]) / base if base else 0.0
    # "Every run of B is better than every run of A" (or worse): no overlap.
    lo_a, hi_a = min(a["values"]), max(a["values"])
    lo_b, hi_b = min(b["values"]), max(b["values"])
    overlap = not (hi_b < lo_a or hi_a < lo_b)
    if spread > bound and overlap:
        return "unresolved", delta
    if worse_by > bound:
        return "worse", delta
    if sign > 0:
        clear = b["q3"] < a["q1"]
    else:
        clear = b["q1"] > a["q3"]
    if clear and -worse_by > spread:
        return "better", delta
    return "same", delta


def failed_share(entry: Dict[str, Any]) -> float:
    return entry["failed"] / entry["attempted"] if entry["attempted"] else 1.0


def _cell(c: Dict[str, Any]) -> str:
    return f"{c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}]"


def compare(a: Dict[str, Any], b: Dict[str, Any], contract: Dict[str, Any]) -> Tuple[List[str], bool]:
    """The printed lines, and whether B is acceptable against A."""
    lines = [
        f"{'workload':<18} {'metric':<17} {'A median [q1, q3]':<34} "
        f"{'B median [q1, q3]':<34} {'delta/A':>8} {'bound':>6}  verdict"
    ]
    ok = True
    shared = [w for w in a["workloads"] if w in b["workloads"]]
    for name in shared:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in contract["end_to_end"]:
            key = metric["name"]
            ca = wa.get("end_to_end", {}).get(key)
            cb = wb.get("end_to_end", {}).get(key)
            if ca is None or cb is None:
                continue
            word, delta = verdict(ca, cb, metric["better"], metric["bound"])
            ok = ok and word != "worse"

            lines.append(
                f"{name:<18} {key:<17} {_cell(ca):<34} {_cell(cb):<34} "
                f"{delta:>+8.1%} {metric['bound']:>6.0%}  {word}"
            )
    lines.append("")
    for name in shared:
        wa, wb = a["workloads"][name], b["workloads"][name]
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        moved = [m for m in DETERMINISTIC if m in la and m in lb and la[m] != lb[m]]
        counts = "n/a" if not (la and lb) else ("yes" if not moved else "no")
        share_a, share_b = failed_share(wa), failed_share(wb)
        lines.append(
            f"{name:<18} sim_identical: {'yes' if wa['digest'] == wb['digest'] else 'no'}"
            f"   counts_identical: {counts}"
            f"   failed_share: {share_a:.4g} -> {share_b:.4g}"
        )
        for m in moved:
            lines.append(f"{'':<18}   {m}: {la[m]} -> {lb[m]}")
        if share_b > share_a:
            ok = False
            lines.append(f"{'':<18}   failed_share rose")
    return lines, ok


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[0], file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    lines, ok = compare(reports[0], reports[1], contract)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
