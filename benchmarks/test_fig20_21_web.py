"""Figures 20 and 21: Web-object download completion time CCDF and
out-of-order delay CCDF for three bandwidth configurations.

Paper shape: at 5/5 Mbps all schedulers are equivalent; at 1/5 and 1/10
(heterogeneous) ECF completes objects sooner than the others and cuts the
out-of-order delay tail.
"""

from bench_common import check_claims, run_once, write_output
from repro.experiments.report import Claim
from repro.metrics.stats import percentile
from repro.net.profiles import lte_config, wifi_config
from repro.workloads.web import WebBrowsingSpec, run_web

CONFIGS = {
    "5.0-5.0": (wifi_config(5.0), lte_config(5.0)),
    "1.0-5.0": (wifi_config(1.0), lte_config(5.0)),
    "1.0-10.0": (wifi_config(1.0), lte_config(10.0)),
}
SCHEDULERS = ("minrtt", "daps", "blest", "ecf")


def test_fig20_21_web_browsing(benchmark):
    def compute():
        return {
            label: {
                name: run_web(
                    WebBrowsingSpec(scheduler=name, path_configs=paths, seed=4)
                )
                for name in SCHEDULERS
            }
            for label, paths in CONFIGS.items()
        }

    data = run_once(benchmark, compute)
    lines = [
        "config     scheduler  ct_mean_s  ct_p95_s  ct_p99_s  ooo_p90_s  ooo_p99_s"
    ]
    stats = {}
    for label, per_sched in data.items():
        for name, result in per_sched.items():
            cts = result.object_completion_times
            ooo = result.ooo_delays
            stats[(label, name)] = (
                result.mean_completion_time,
                percentile(cts, 99),
                percentile(ooo, 99) if ooo else 0.0,
            )
            lines.append(
                f"{label:9s}  {name:9s}  {result.mean_completion_time:9.3f}  "
                f"{percentile(cts, 95):8.3f}  {percentile(cts, 99):8.3f}  "
                f"{percentile(ooo, 90) if ooo else 0:9.3f}  "
                f"{percentile(ooo, 99) if ooo else 0:9.3f}"
            )
    write_output("fig20_21_web", "\n".join(lines))

    paper = "all schedulers equal at 5/5; ECF completes objects sooner and cuts OOO delay at 1/5 and 1/10"

    def ecf_vs_default(claim, text, label, column, scale):
        return Claim(
            f"fig20_21_web.{claim}", text, paper,
            {"ecf": stats[(label, "ecf")][column], "default": stats[(label, "minrtt")][column]},
            chain=("ecf", "default"), scale=scale,
        )

    check_claims("fig20_21_web", [
        # Shape: symmetric config -> ECF within noise of default.
        ecf_vs_default(
            "symmetric_completion",
            "At 5/5 Mbps, ECF's mean object completion time (s) is within noise of the default's",
            "5.0-5.0", 0, 1.3,
        ),
        # Heterogeneous configs -> ECF mean completion no worse than
        # default, and the deep completion tail (p99) at least as light at
        # 1-10.
        ecf_vs_default(
            "hetero_completion",
            "At 1/10 Mbps, ECF's mean object completion time (s) is no worse than the default's",
            "1.0-10.0", 0, 1.05,
        ),
        ecf_vs_default(
            "hetero_completion_p99",
            "At 1/10 Mbps, ECF's object completion p99 (s) is no worse than the default's",
            "1.0-10.0", 1, 1.05,
        ),
        # And ECF's out-of-order tail is no heavier there either.
        ecf_vs_default(
            "hetero_ooo_p99",
            "At 1/10 Mbps, ECF's OOO-delay p99 (s) is no heavier than the default's",
            "1.0-10.0", 2, 1.05,
        ),
    ])
