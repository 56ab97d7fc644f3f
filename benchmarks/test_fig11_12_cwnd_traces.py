"""Figures 11 and 12: WiFi and LTE CWND traces per scheduler at
0.3 Mbps WiFi / 8.6 Mbps LTE.

Paper shape: the default scheduler grows a large WiFi (slow path) window
and keeps knocking the LTE (fast path) window back to the initial window;
ECF does the opposite -- the LTE window stays high, the WiFi window stays
comparatively small.
"""

from bench_common import check_claims, hetero_run, run_once, write_output
from repro.experiments.report import Claim

SCHEDULERS = ("minrtt", "daps", "blest", "ecf")


def mean(values):
    return sum(values) / len(values) if values else 0.0


def test_fig11_12_cwnd_traces(benchmark):
    def compute():
        return {
            name: hetero_run(name, wifi=0.3, lte=8.6, record_traces=True)
            for name in SCHEDULERS
        }

    results = run_once(benchmark, compute)
    lines = ["scheduler  mean_wifi_cwnd  mean_lte_cwnd  lte_iw_resets"]
    stats = {}
    for name, result in results.items():
        wifi_cwnd = result.trace.values("cwnd.wifi0")
        lte_cwnd = result.trace.values("cwnd.lte1")
        resets = result.iw_resets_by_interface.get("lte", 0)
        stats[name] = (mean(wifi_cwnd), mean(lte_cwnd), resets)
        lines.append(
            f"{name:9s}  {stats[name][0]:14.1f}  {stats[name][1]:13.1f}  {resets:12d}"
        )
    # Also dump the raw ECF vs default traces for plotting.
    lines.append("\ntime_s  default_lte_cwnd  ecf_lte_cwnd")
    default_trace = results["minrtt"].trace.series("cwnd.lte1")
    ecf_trace = results["ecf"].trace.series("cwnd.lte1")
    for (t, d), (_, e) in list(zip(default_trace, ecf_trace))[::4]:
        lines.append(f"{t:7.2f}  {d:16.1f}  {e:12.1f}")
    write_output("fig11_12_cwnd_traces", "\n".join(lines))

    # Shape: ECF sustains a higher LTE window than the default and resets
    # it less.
    paper = "the default keeps resetting the LTE CWND to IW; ECF sustains the LTE window"
    check_claims("fig11_12_cwnd_traces", [
        Claim(
            "fig11_12_cwnd_traces.lte_window",
            "ECF's mean LTE CWND (segments) at WiFi 0.3 / LTE 8.6 at least matches the default's",
            paper, {"ecf": stats["ecf"][1], "default": stats["minrtt"][1]},
            chain=("ecf", "default"), op=">=",
        ),
        Claim(
            "fig11_12_cwnd_traces.lte_resets",
            "ECF resets the LTE CWND to IW no more often than the default",
            paper, {"ecf": stats["ecf"][2], "default": stats["minrtt"][2]},
            chain=("ecf", "default"),
        ),
    ])
