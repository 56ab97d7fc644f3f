"""Ablation: ECF's hysteresis constant beta.

The paper sets beta = 0.25 and reports that "other values ... were
examined but found to yield similar results".  We sweep beta over two
orders of magnitude at the flagship heterogeneous cell and check the
outcome is indeed insensitive.
"""

from bench_common import BENCH_LONG_VIDEO_SECONDS, check_claims, run_once, write_output
from repro.experiments.report import Claim
from repro.experiments.runner import StreamingRunConfig, run_streaming

BETAS = (0.0, 0.1, 0.25, 0.5, 1.0)


def test_ablation_beta(benchmark):
    def compute():
        out = {}
        for beta in BETAS:
            result = run_streaming(StreamingRunConfig(
                scheduler="ecf", scheduler_params={"beta": beta},
                wifi_mbps=0.3, lte_mbps=8.6,
                video_duration=BENCH_LONG_VIDEO_SECONDS,
            ))
            out[beta] = result.metrics.steady_average_bitrate_bps
        return out

    rates = run_once(benchmark, compute)
    lines = ["beta   steady_bitrate_Mbps"]
    for beta in BETAS:
        lines.append(f"{beta:5.2f}  {rates[beta] / 1e6:8.2f}")
    write_output("ablation_beta", "\n".join(lines))

    values = list(rates.values())
    check_claims("ablation_beta", [
        Claim(
            "ablation_beta.insensitive",
            "ECF's steady bit rate at WiFi 0.3 / LTE 8.6 barely moves over beta in {0, 0.1, 0.25, 0.5, 1}",
            "\"other values ... yield similar results\"",
            {"max/min bit rate": max(values) / min(values)}, hi=1.35,
        ),
    ])
