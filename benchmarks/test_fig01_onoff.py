"""Figure 1: ON-OFF download behaviour of a streaming client.

The paper shows a Netflix trace whose download progress rises steeply
during initial buffering, then steps in an ON-OFF pattern.  We regenerate
the same curve from our DASH player's download-progress trace and check
its signature: an initial-buffering knee followed by spaced steps.
"""

from bench_common import check_claims, hetero_run, run_once, write_output
from repro.experiments.report import Claim


def test_fig01_onoff_download_pattern(benchmark):
    result = run_once(
        benchmark,
        lambda: hetero_run("minrtt", wifi=4.2, lte=8.6, record_traces=True),
    )
    trace = result.trace.series("player.download_bytes")
    lines = ["time_s  downloaded_MB"]
    for t, v in trace:
        lines.append(f"{t:7.2f}  {v / 1e6:8.3f}")
    startup = result.metrics.startup_completed_at
    lines.append(f"# initial buffering completes ~{startup:.1f} s" if startup else "#")
    write_output("fig01_onoff", "\n".join(lines))

    # Shape: progress is monotone, and after startup the requests space out
    # into ON-OFF steps roughly a chunk apart.
    values = [v for _, v in trace]
    requests = [c.requested_at for c in result.metrics.chunks]
    steady_gaps = [b - a for a, b in zip(requests, requests[1:]) if a > (startup or 0)]
    paper = "Netflix ON-OFF curve: steep initial buffering, then spaced steps"
    check_claims("fig01_onoff", [
        Claim(
            "fig01_onoff.monotone",
            "Download progress never steps back (smallest step, MB)",
            paper, {"step": min(b - a for a, b in zip(values, values[1:])) / 1e6}, lo=0.0,
        ),
        Claim(
            "fig01_onoff.off_periods",
            "After the initial-buffering knee, requests space out by more than 2 s (longest gap, s)",
            paper, {"gap": max(steady_gaps, default=0.0)}, op="<", lo=2.0,
        ),
    ])
