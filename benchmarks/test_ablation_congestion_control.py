"""Ablation: congestion controller choice.

Section 3.1: "we observe similar performance degradation regardless of
the congestion controller used (e.g., Olia)".  We run the flagship
heterogeneous cell under coupled/LIA, OLIA, and uncoupled Reno, for both
the default scheduler and ECF, and check the pattern (ECF >= default)
holds for every controller.
"""

from bench_common import BENCH_LONG_VIDEO_SECONDS, check_claims, run_once, write_output
from repro.experiments.report import Claim
from repro.experiments.runner import StreamingRunConfig, run_streaming

CONTROLLERS = ("coupled", "olia", "reno")


def test_ablation_congestion_control(benchmark):
    def compute():
        out = {}
        for cc in CONTROLLERS:
            for scheduler in ("minrtt", "ecf"):
                result = run_streaming(StreamingRunConfig(
                    scheduler=scheduler, congestion_control=cc,
                    wifi_mbps=0.3, lte_mbps=8.6,
                    video_duration=BENCH_LONG_VIDEO_SECONDS,
                ))
                out[(cc, scheduler)] = result.metrics.steady_average_bitrate_bps
        return out

    rates = run_once(benchmark, compute)
    lines = ["cc       default_Mbps  ecf_Mbps"]
    for cc in CONTROLLERS:
        lines.append(
            f"{cc:7s}  {rates[(cc, 'minrtt')] / 1e6:12.2f}  "
            f"{rates[(cc, 'ecf')] / 1e6:8.2f}"
        )
    write_output("ablation_congestion_control", "\n".join(lines))

    # The heterogeneity gap and ECF's answer are controller-independent.
    check_claims("ablation_congestion_control", [
        Claim(
            f"ablation_congestion_control.{cc}",
            f"ECF's steady bit rate (Mbps) at least matches the default's at WiFi 0.3 / LTE 8.6 under {cc}",
            "degradation appears \"regardless of the congestion controller\" (Sec 3.1)",
            {"ecf": rates[(cc, "ecf")] / 1e6, "default": rates[(cc, "minrtt")] / 1e6},
            chain=("ecf", "default"), op=">=", scale=0.95,
        )
        for cc in CONTROLLERS
    ])
