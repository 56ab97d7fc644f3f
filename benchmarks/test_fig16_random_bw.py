"""Figure 16: average streaming throughput under random bandwidth
changes, per scenario, for default / BLEST / ECF.

Paper shape: ECF's per-scenario average throughput is at least the other
schedulers', with the margin depending on how much heterogeneity the
scenario happens to contain.
"""

from bench_common import check_claims, run_once, write_output
from repro.experiments.report import Claim
from repro.experiments.runner import StreamingRunConfig, run_streaming
from repro.workloads.scenarios import random_bandwidth_scenarios

SCHEDULERS = ("minrtt", "blest", "ecf")
SCENARIOS = 6
VIDEO = 160.0


def run_scenario(scenario, scheduler):
    config = StreamingRunConfig(
        scheduler=scheduler,
        wifi_mbps=scenario.wifi.rate_at(0.0) / 1e6,
        lte_mbps=scenario.lte.rate_at(0.0) / 1e6,
        video_duration=VIDEO,
        wifi_process=scenario.wifi,
        lte_process=scenario.lte,
        seed=scenario.index,
    )
    return run_streaming(config).metrics.steady_average_throughput_bps


def test_fig16_random_bandwidth_scenarios(benchmark):
    scenarios = random_bandwidth_scenarios(count=SCENARIOS, duration=VIDEO * 2)

    def compute():
        return {
            scenario.index: {
                name: run_scenario(scenario, name) for name in SCHEDULERS
            }
            for scenario in scenarios
        }

    data = run_once(benchmark, compute)
    lines = ["scenario  default_Mbps  blest_Mbps  ecf_Mbps"]
    for index in sorted(data):
        row = data[index]
        lines.append(
            f"{index:8d}  {row['minrtt'] / 1e6:12.2f}  "
            f"{row['blest'] / 1e6:10.2f}  {row['ecf'] / 1e6:8.2f}"
        )
    means = {
        name: sum(row[name] for row in data.values()) / len(data)
        for name in SCHEDULERS
    }
    lines.append(f"\n# means: { {k: round(v / 1e6, 2) for k, v in means.items()} }")
    write_output("fig16_random_bw", "\n".join(lines))

    # Shape: on average over scenarios, ECF >= default (within noise).
    check_claims("fig16_random_bw", [
        Claim(
            "fig16_random_bw.ecf_over_default",
            f"ECF's steady throughput (Mbps), averaged over {SCENARIOS} random-bandwidth scenarios, at least matches the default's",
            "ECF's per-scenario throughput >= the others'",
            {"ecf": means["ecf"] / 1e6, "default": means["minrtt"] / 1e6},
            chain=("ecf", "default"), op=">=", scale=0.95,
        ),
    ])
