"""Figure 5: CDF of the time difference between the last packets on each
subflow, default scheduler, for {0.3, 0.7, 1.1, 4.2} Mbps WiFi vs 8.6 LTE.

Paper shape: the more heterogeneous the pair, the larger the gap -- the
slow subflow's last packet trails the fast subflow's by up to seconds at
0.3-8.6 and by almost nothing at 4.2-8.6.
"""

from bench_common import check_claims, hetero_run, run_once, write_output
from repro.experiments.report import Claim
from repro.metrics.stats import cdf, percentile

PAIRS = (0.3, 0.7, 1.1, 4.2)


def test_fig05_last_packet_gap_cdf(benchmark):
    def compute():
        return {wifi: hetero_run("minrtt", wifi=wifi, lte=8.6) for wifi in PAIRS}

    results = run_once(benchmark, compute)
    lines = ["# CDF of last-packet time difference per chunk download"]
    medians = {}
    for wifi, result in results.items():
        gaps = result.last_packet_gaps
        medians[wifi] = percentile(gaps, 50)
        lines.append(f"\n-- {wifi}-8.6 Mbps (n={len(gaps)}) --")
        lines.append("gap_s  P[X<=x]")
        for x, p in cdf(gaps)[:: max(1, len(gaps) // 20)]:
            lines.append(f"{x:6.3f}  {p:5.3f}")
        lines.append(f"median={medians[wifi]:.3f}s p90={percentile(gaps, 90):.3f}s")
    write_output("fig05_lastpacket", "\n".join(lines))

    # Shape: gaps grow with heterogeneity; the most symmetric pair has the
    # smallest median gap, the most heterogeneous the largest.
    paper = "gap grows with heterogeneity: ~1 s+ at 0.3-8.6, near zero at 4.2-8.6"
    check_claims("fig05_lastpacket", [
        Claim(
            "fig05_lastpacket.grows_with_heterogeneity",
            "The median last-packet gap (s) at 4.2-8.6 is below the one at 0.3-8.6",
            paper, {"4.2-8.6": medians[4.2], "0.3-8.6": medians[0.3]},
            chain=("4.2-8.6", "0.3-8.6"), op="<",
        ),
        Claim(
            "fig05_lastpacket.hetero_gap",
            "The median last-packet gap at 0.3-8.6 exceeds 0.2 s",
            paper, {"0.3-8.6": medians[0.3]}, op="<", lo=0.2,
        ),
    ])
