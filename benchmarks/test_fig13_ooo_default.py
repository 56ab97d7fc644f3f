"""Figure 13: CCDF of out-of-order delay with the default scheduler, for
{0.3, 0.7, 1.1, 4.2} Mbps WiFi vs 8.6 Mbps LTE.

Paper shape: out-of-order delays grow as paths become more heterogeneous;
at 0.3-8.6 the tail reaches the second scale, at 4.2-8.6 it is tiny.
"""

from bench_common import check_claims, hetero_run, run_once, write_output
from repro.experiments.report import Claim
from repro.metrics.stats import ccdf, percentile

PAIRS = (0.3, 0.7, 1.1, 4.2)


def test_fig13_ooo_delay_default(benchmark):
    def compute():
        return {wifi: hetero_run("minrtt", wifi=wifi, lte=8.6) for wifi in PAIRS}

    results = run_once(benchmark, compute)
    lines = []
    p99 = {}
    for wifi, result in results.items():
        delays = result.ooo_delays
        p99[wifi] = percentile(delays, 99)
        lines.append(f"-- {wifi}-8.6 Mbps (n={len(delays)}) --")
        lines.append("delay_s  P[X>x]")
        points = ccdf(delays)
        for x, p in points[:: max(1, len(points) // 25)]:
            lines.append(f"{x:7.3f}  {p:6.4f}")
        lines.append(f"p99={p99[wifi]:.3f}s\n")
    write_output("fig13_ooo_default", "\n".join(lines))

    # Shape: tail out-of-order delay decreases as heterogeneity shrinks.
    paper = "the OOO-delay tail grows with heterogeneity: second-scale at 0.3-8.6, tiny at 4.2-8.6"
    check_claims("fig13_ooo_default", [
        Claim(
            "fig13_ooo_default.tail_grows",
            "The default's OOO-delay p99 (s) at 0.3-8.6 is above the one at 4.2-8.6",
            paper, {"0.3-8.6": p99[0.3], "4.2-8.6": p99[4.2]},
            chain=("0.3-8.6", "4.2-8.6"), op=">",
        ),
        Claim(
            "fig13_ooo_default.symmetric_tail",
            "The default's OOO-delay p99 at 4.2-8.6 is below 0.5 s",
            paper, {"4.2-8.6": p99[4.2]}, op="<", hi=0.5,
        ),
    ])
