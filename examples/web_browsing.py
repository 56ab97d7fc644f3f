#!/usr/bin/env python3
"""Full Web-page load over MPTCP (Section 5.5 workload).

Loads a synthetic 107-object CNN-like page over six persistent MPTCP
connections (the paper's browser model) under each scheduler and prints
the per-object completion-time distribution plus out-of-order delays.
Each load is one frozen ``WebBrowsingSpec`` handed to ``run_web``.

Run:
    python examples/web_browsing.py [wifi_mbps] [lte_mbps]
"""

import sys

from repro.metrics.stats import percentile
from repro.net.profiles import lte_config, wifi_config
from repro.workloads.web import WebBrowsingSpec, cnn_like_page, run_web

SCHEDULERS = ("minrtt", "ecf", "blest", "daps")


def main() -> None:
    wifi = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    lte = float(sys.argv[2]) if len(sys.argv) > 2 else 10.0
    page = cnn_like_page()
    print(
        f"Loading a {len(page)}-object page ({page.total_bytes / 1e6:.1f} MB) "
        f"over {wifi} Mbps WiFi + {lte} Mbps LTE, 6 connections\n"
    )
    print(
        f"{'scheduler':<10}{'mean ct':>9}{'p95 ct':>8}{'p99 ct':>8}"
        f"{'page load':>11}{'ooo p99':>9}"
    )
    for name in SCHEDULERS:
        result = run_web(
            WebBrowsingSpec(
                scheduler=name,
                path_configs=(wifi_config(wifi), lte_config(lte)),
                object_sizes=page.object_sizes,
                seed=7,
            )
        )
        cts = result.object_completion_times
        ooo = result.ooo_delays
        print(
            f"{name:<10}{result.mean_completion_time:>8.2f}s"
            f"{percentile(cts, 95):>7.2f}s{percentile(cts, 99):>7.2f}s"
            f"{result.page_load_time:>10.2f}s"
            f"{percentile(ooo, 99) if ooo else 0:>8.2f}s"
        )
    print(
        "\nPersistent connections idle between objects, so the fast path's"
        "\nwindow keeps collapsing under the default scheduler; ECF avoids"
        "\nqueueing object tails behind the slow path."
    )


if __name__ == "__main__":
    main()
