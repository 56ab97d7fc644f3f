"""Figure 3: per-subflow send-buffer occupancy, 0.3 Mbps WiFi / 8.6 LTE.

Paper shape: the fast (LTE) subflow's buffer fills and drains quickly in
bursts while the slow (WiFi) subflow holds a sizeable backlog that drains
slowly -- the slow path is still transmitting while the fast path idles.
"""

from bench_common import check_claims, hetero_run, run_once, write_output
from repro.experiments.report import Claim


def test_fig03_send_buffer_occupancy(benchmark):
    result = run_once(
        benchmark,
        lambda: hetero_run("minrtt", wifi=0.3, lte=8.6, record_traces=True),
    )
    wifi = result.trace.series("sndbuf.wifi0")
    lte = result.trace.series("sndbuf.lte1")
    lines = ["time_s  wifi_kB  lte_kB"]
    for (t, w), (_, l) in list(zip(wifi, lte))[:400]:
        lines.append(f"{t:7.2f}  {w / 1e3:7.2f}  {l / 1e3:7.2f}")
    write_output("fig03_sndbuf", "\n".join(lines))

    wifi_values = [v for _, v in wifi]
    lte_values = [v for _, v in lte]
    paper = "LTE fills/drains in bursts; WiFi holds a ~150-200 kB slowly-draining backlog"
    check_claims("fig03_sndbuf", [
        # The fast subflow empties completely between bursts...
        Claim(
            "fig03_sndbuf.lte_empties",
            "The LTE send buffer empties completely between bursts (kB)",
            paper, {"lte min": min(lte_values) / 1e3}, lo=0.0, hi=0.0,
        ),
        Claim(
            "fig03_sndbuf.lte_bursts",
            "The LTE send buffer fills between its empty spells (kB)",
            paper, {"lte min": min(lte_values) / 1e3, "lte max": max(lte_values) / 1e3},
            chain=("lte min", "lte max"), op="<",
        ),
        # ...while the slow subflow carries a persistent multi-segment
        # backlog: >= ~7 segments queued at its peak.
        Claim(
            "fig03_sndbuf.wifi_backlog",
            "The WiFi send buffer peaks above 10 kB (kB)",
            paper, {"wifi max": max(wifi_values) / 1e3}, op="<", lo=10.0,
        ),
    ])
