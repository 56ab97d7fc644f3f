"""Figure 15: bit-rate ratio with four subflows (2 WiFi + 2 LTE),
0.3 Mbps WiFi vs a range of LTE bandwidths, default vs ECF.

Paper shape: with four subflows the default still degrades under strong
heterogeneity while ECF mitigates it.
"""

from bench_common import BENCH_VIDEO_SECONDS, check_claims, run_once, write_output
from repro.experiments.report import Claim
from repro.apps.dash.media import VideoManifest
from repro.experiments.ideal import ideal_average_bitrate
from repro.experiments.runner import StreamingRunConfig, run_streaming

LTE_VALUES = (0.3, 1.1, 1.7, 4.2, 8.6)


def ratio(result, wifi, lte):
    ideal = ideal_average_bitrate([wifi * 1e6, lte * 1e6], VideoManifest())
    return min(1.0, result.metrics.steady_average_bitrate_bps / ideal)


def test_fig15_four_subflows(benchmark):
    def compute():
        rows = []
        for lte in LTE_VALUES:
            per_sched = {}
            for name in ("minrtt", "ecf"):
                result = run_streaming(StreamingRunConfig(
                    scheduler=name, wifi_mbps=0.3, lte_mbps=lte,
                    video_duration=BENCH_VIDEO_SECONDS,
                    subflows_per_interface=2,
                ))
                per_sched[name] = ratio(result, 0.3, lte)
            rows.append((lte, per_sched["minrtt"], per_sched["ecf"]))
        return rows

    rows = run_once(benchmark, compute)
    lines = ["lte_Mbps  default_ratio  ecf_ratio   (wifi = 0.3 Mbps, 2+2 subflows)"]
    for lte, default, ecf in rows:
        lines.append(f"{lte:8.1f}  {default:13.2f}  {ecf:9.2f}")
    write_output("fig15_four_subflows", "\n".join(lines))

    paper = "with 2+2 subflows the default still degrades under heterogeneity; ECF mitigates it"
    check_claims("fig15_four_subflows", [
        # Shape: ECF at least matches the default across the row.
        Claim(
            "fig15_four_subflows.ecf_over_default",
            "Summed over LTE 0.3-8.6 at WiFi 0.3, ECF's bit-rate ratio at least matches the default's",
            paper, {"ecf": sum(e for _, _, e in rows), "default": sum(d for _, d, _ in rows)},
            chain=("ecf", "default"), op=">=", scale=0.95,
        ),
        # And every run produced sane ratios.
        Claim(
            "fig15_four_subflows.positive",
            "Every run's bit-rate ratio is above 0",
            paper, {"default": [d for _, d, _ in rows], "ecf": [e for _, _, e in rows]},
            op="<", lo=0.0,
        ),
        Claim(
            "fig15_four_subflows.fractions",
            "Every run's bit-rate ratio is at most 1",
            paper, {"default": [d for _, d, _ in rows], "ecf": [e for _, _, e in rows]},
            hi=1.0,
        ),
    ])
