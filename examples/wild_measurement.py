#!/usr/bin/env python3
"""Emulated in-the-wild measurement study (Section 6).

Draws nine streaming runs with wild path profiles -- a public-WiFi path
whose RTT varies from tens of milliseconds to nearly a second across
runs, and a stable ~70 ms LTE path -- then compares default vs ECF, as
the paper does against its Washington D.C. server.  The streaming half is
one ``WildStreamingSpec`` handed to ``run_wild``.

Run:
    python examples/wild_measurement.py
"""

from repro.experiments.wild import WildStreamingSpec, run_wild, run_wild_web
from repro.metrics.stats import mean


def main() -> None:
    print("Streaming in the wild (9 runs, sorted by WiFi RTT)\n")
    print(f"{'run':<5}{'wifi rtt':>10}{'lte rtt':>9}{'default':>10}{'ecf':>8}")
    runs = run_wild(WildStreamingSpec(runs=9, video_duration=60.0)).runs
    default_thps, ecf_thps = [], []
    for run in runs:
        default_thps.append(run.throughput_mbps("minrtt"))
        ecf_thps.append(run.throughput_mbps("ecf"))
        print(
            f"{run.run_index:<5}"
            f"{run.wifi_config.one_way_delay * 2000:>8.0f}ms"
            f"{run.lte_config.one_way_delay * 2000:>7.0f}ms"
            f"{default_thps[-1]:>9.2f}M{ecf_thps[-1]:>7.2f}M"
        )
    gain = (mean(ecf_thps) / mean(default_thps) - 1) * 100
    print(f"\nmean throughput gain: {gain:+.1f}%  (paper reports +16%)")

    print("\nWeb browsing in the wild (8 page loads)\n")
    web = run_wild_web(runs=8)
    for name, label in (("minrtt", "default"), ("ecf", "ecf")):
        cts = [t for r in web[name] for t in r.object_completion_times]
        ooo = [d for r in web[name] for d in r.ooo_delays]
        print(
            f"{label:<8} object completion {mean(cts):6.3f} s   "
            f"ooo delay {mean(ooo):6.3f} s"
        )


if __name__ == "__main__":
    main()
