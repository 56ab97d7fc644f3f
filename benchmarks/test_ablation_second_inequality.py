"""Ablation: ECF's second inequality.

Algorithm 1 double-checks that the slow subflow really would finish later
than a waiting fast subflow (k/CWND_s * RTT_s >= 2 RTT_f + delta) before
declining to send.  Without it ECF waits too eagerly when the two paths
are close in RTT, hurting near-symmetric workloads.
"""

from bench_common import BENCH_LONG_VIDEO_SECONDS, check_claims, run_once, write_output
from repro.experiments.report import Claim
from repro.experiments.runner import StreamingRunConfig, run_streaming

CELLS = ((0.3, 8.6), (4.2, 8.6), (8.6, 8.6))


def test_ablation_second_inequality(benchmark):
    def compute():
        out = {}
        for wifi, lte in CELLS:
            for enabled in (True, False):
                result = run_streaming(StreamingRunConfig(
                    scheduler="ecf",
                    scheduler_params={"use_second_inequality": enabled},
                    wifi_mbps=wifi, lte_mbps=lte,
                    video_duration=BENCH_LONG_VIDEO_SECONDS,
                ))
                out[(wifi, lte, enabled)] = result.metrics.steady_average_bitrate_bps
        return out

    rates = run_once(benchmark, compute)
    lines = ["wifi-lte   with_2nd_Mbps  without_2nd_Mbps"]
    for wifi, lte in CELLS:
        lines.append(
            f"{wifi:3.1f}-{lte:3.1f}   {rates[(wifi, lte, True)] / 1e6:13.2f}  "
            f"{rates[(wifi, lte, False)] / 1e6:16.2f}"
        )
    write_output("ablation_second_inequality", "\n".join(lines))

    # The guard never hurts: full ECF >= crippled ECF at every cell
    # (within noise).
    check_claims("ablation_second_inequality", [
        Claim(
            f"ablation_second_inequality.{wifi}-{lte}",
            f"ECF's steady bit rate (Mbps) with the second inequality at least matches it without, at WiFi {wifi} / LTE {lte}",
            "(not ablated in the paper)",
            {"with": rates[(wifi, lte, True)] / 1e6, "without": rates[(wifi, lte, False)] / 1e6},
            chain=("with", "without"), op=">=", scale=0.9,
        )
        for wifi, lte in CELLS
    ])
