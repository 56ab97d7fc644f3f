"""Figure 17: per-chunk download throughput trace for one random
bandwidth-change scenario, default vs ECF.

Paper shape: ECF's per-chunk throughput is similar or larger than the
default's for every chunk, with up to ~2x gains while the scenario is
heterogeneous.
"""

from bench_common import check_claims, run_once, write_output
from repro.experiments.report import Claim
from repro.experiments.runner import StreamingRunConfig, run_streaming
from repro.workloads.scenarios import random_bandwidth_scenarios

VIDEO = 160.0
SCENARIO_INDEX = 5  # the paper picks its scenario 6 (1-based)


def test_fig17_chunk_throughput_trace(benchmark):
    scenario = random_bandwidth_scenarios(count=SCENARIO_INDEX + 1, duration=VIDEO * 2)[
        SCENARIO_INDEX
    ]

    def run(name):
        config = StreamingRunConfig(
            scheduler=name,
            wifi_mbps=scenario.wifi.rate_at(0.0) / 1e6,
            lte_mbps=scenario.lte.rate_at(0.0) / 1e6,
            video_duration=VIDEO,
            wifi_process=scenario.wifi,
            lte_process=scenario.lte,
            seed=SCENARIO_INDEX,
        )
        return run_streaming(config)

    results = run_once(benchmark, lambda: {n: run(n) for n in ("minrtt", "ecf")})
    default_chunks = results["minrtt"].metrics.chunks
    ecf_chunks = results["ecf"].metrics.chunks
    lines = ["chunk  default_Mbps  ecf_Mbps"]
    for index in range(min(len(default_chunks), len(ecf_chunks))):
        lines.append(
            f"{index:5d}  {default_chunks[index].throughput_bps / 1e6:12.2f}  "
            f"{ecf_chunks[index].throughput_bps / 1e6:8.2f}"
        )
    write_output("fig17_chunk_trace", "\n".join(lines))

    mean_default = sum(c.throughput_bps for c in default_chunks) / len(default_chunks)
    mean_ecf = sum(c.throughput_bps for c in ecf_chunks) / len(ecf_chunks)
    # Shape: ECF's chunk throughput is at least comparable overall.
    check_claims("fig17_chunk_trace", [
        Claim(
            "fig17_chunk_trace.ecf_comparable",
            "ECF's mean per-chunk throughput (Mbps) in random scenario 6 is at least comparable to the default's",
            "ECF similar or better for every chunk, up to 2x in heterogeneous episodes",
            {"ecf": mean_ecf / 1e6, "default": mean_default / 1e6},
            chain=("ecf", "default"), op=">=", scale=0.9,
        ),
    ])
