"""Figure 22: in-the-wild streaming -- per-run RTTs and throughput,
default vs ECF, runs sorted by WiFi RTT.

Paper shape: LTE RTT is stable around 70 ms while WiFi RTT spans a wide
range; in RTT-symmetric runs the schedulers tie, and ECF's throughput
advantage grows with the RTT asymmetry (16% on average in the paper).
"""

from bench_common import run_once, write_output
from repro.experiments.wild import WildStreamingSpec, run_wild


def test_fig22_wild_streaming(benchmark):
    runs = run_once(
        benchmark,
        lambda: run_wild(WildStreamingSpec(runs=9, video_duration=60.0)).runs,
    )

    lines = ["run  wifi_rtt_ms  lte_rtt_ms  default_Mbps  ecf_Mbps"]
    default_total = ecf_total = 0.0
    for run in runs:
        default_thp = run.throughput_mbps("minrtt")
        ecf_thp = run.throughput_mbps("ecf")
        default_total += default_thp
        ecf_total += ecf_thp
        lines.append(
            f"{run.run_index:3d}  {run.wifi_config.one_way_delay * 2000:11.0f}  "
            f"{run.lte_config.one_way_delay * 2000:10.0f}  "
            f"{default_thp:12.2f}  {ecf_thp:8.2f}"
        )
    improvement = (ecf_total - default_total) / default_total * 100
    lines.append(f"\n# mean ECF improvement: {improvement:+.1f}% (paper: +16%)")
    write_output("fig22_wild_streaming", "\n".join(lines))

    # Shape: the drawn WiFi RTTs span a wide range while LTE stays stable.
    wifi_rtts = [run.wifi_config.one_way_delay for run in runs]
    lte_rtts = [run.lte_config.one_way_delay for run in runs]
    assert max(wifi_rtts) / min(wifi_rtts) > 3.0
    assert max(lte_rtts) / min(lte_rtts) < 1.5
    # ECF at least matches the default overall.
    assert ecf_total >= default_total * 0.97
