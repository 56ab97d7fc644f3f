"""Extension experiment: ECF vs MP-DASH-style deadline path management.

The paper declines to evaluate MP-DASH ("it activates and deactivates
cellular paths according to required bandwidths ... regardless of path
heterogeneity"); having built both, we can run the comparison it alludes
to.  Expected shape, per both papers' claims: MP-DASH slashes cellular
(LTE) usage when WiFi alone meets the rate requirement, at little QoE
cost there -- while ECF, which optimizes completion time rather than
cellular economy, delivers the higher bit rate when WiFi alone is not
enough.
"""

from bench_common import BENCH_LONG_VIDEO_SECONDS, check_claims, run_once, write_output
from repro.experiments.report import Claim
from repro.experiments.runner import StreamingRunConfig, run_streaming

SCHEDULERS = ("minrtt", "ecf", "mpdash")
CELLS = ((8.6, 8.6), (4.2, 8.6), (0.3, 8.6))


def test_ext_mpdash_vs_ecf(benchmark):
    def compute():
        out = {}
        for wifi, lte in CELLS:
            for name in SCHEDULERS:
                result = run_streaming(StreamingRunConfig(
                    scheduler=name, wifi_mbps=wifi, lte_mbps=lte,
                    video_duration=BENCH_LONG_VIDEO_SECONDS,
                ))
                total = sum(result.payload_by_interface.values())
                out[(wifi, lte, name)] = {
                    "bitrate": result.metrics.steady_average_bitrate_bps,
                    "lte_share": result.payload_by_interface.get("lte", 0) / total,
                }
        return out

    data = run_once(benchmark, compute)
    lines = ["wifi-lte   scheduler  bitrate_Mbps  lte_share"]
    for wifi, lte in CELLS:
        for name in SCHEDULERS:
            row = data[(wifi, lte, name)]
            lines.append(
                f"{wifi:3.1f}-{lte:3.1f}   {name:9s}  {row['bitrate'] / 1e6:12.2f}  "
                f"{row['lte_share']:9.2f}"
            )
    write_output("ext_mpdash", "\n".join(lines))

    check_claims("ext_mpdash", [
        # When WiFi is starved (0.3), everyone leans on LTE and ECF's bit
        # rate is at least MP-DASH's.
        Claim(
            "ext_mpdash.starved_wifi",
            "ECF's steady bit rate (Mbps) at least matches MP-DASH's at WiFi 0.3 / LTE 8.6",
            "(not evaluated in the paper, Sec 7)",
            {"ecf": data[(0.3, 8.6, "ecf")]["bitrate"] / 1e6,
             "mpdash": data[(0.3, 8.6, "mpdash")]["bitrate"] / 1e6},
            chain=("ecf", "mpdash"), op=">=", scale=0.95,
        ),
        # MP-DASH never uses more LTE than the default at any cell.
        Claim(
            "ext_mpdash.lte_share",
            "MP-DASH's LTE share is no larger than the default's at WiFi 8.6 / 4.2 / 0.3, LTE 8.6",
            "(not evaluated in the paper, Sec 7)",
            {"mpdash": [data[(w, l, "mpdash")]["lte_share"] for w, l in CELLS],
             "default": [data[(w, l, "minrtt")]["lte_share"] for w, l in CELLS]},
            chain=("mpdash", "default"), margin=0.25,
        ),
    ])
