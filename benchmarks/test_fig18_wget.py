"""Figure 18: wget download completion time for 128 kB - 1 MB objects,
WiFi fixed at 1 Mbps, LTE swept 1..10 Mbps, all four schedulers.

Paper shape: completion time falls with LTE bandwidth for sizes large
enough to engage the secondary subflow; schedulers are statistically
close, with DAPS occasionally worse and ECF shaving time off the largest
transfers at high heterogeneity.
"""

from bench_common import bench_executor, check_claims, run_once, write_output
from repro.experiments.report import Claim
from repro.experiments.grid import wget_matrix

SIZES = (128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024)
LTE_MBPS = tuple(range(1, 11))
SCHEDULERS = ("minrtt", "daps", "blest", "ecf")


def test_fig18_wget_completion_times(benchmark):
    def compute():
        matrix = wget_matrix(
            SCHEDULERS,
            SIZES,
            wifi_values_mbps=(1.0,),
            lte_values_mbps=tuple(float(v) for v in LTE_MBPS),
            seed=1,
            executor=bench_executor(),
        )
        return {
            (size, int(lte), name): result.completion_time
            for (size, _, lte, name), result in matrix.items()
        }

    table = run_once(benchmark, compute)
    lines = ["size_kB  lte_Mbps  default_s  daps_s  blest_s  ecf_s"]
    for size in SIZES:
        for lte in LTE_MBPS:
            row = [f"{size // 1024:7d}  {lte:8d}"]
            for name in SCHEDULERS:
                row.append(f"{table[(size, lte, name)]:7.3f}")
            lines.append(" ".join(row))
    write_output("fig18_wget", "\n".join(lines))

    paper = "completion time falls with LTE bandwidth; schedulers statistically close; DAPS occasionally worse"
    sizes = tuple(f"{size // 1024} kB" for size in SIZES)
    check_claims("fig18_wget", [
        # Shape 1: larger files take longer at fixed bandwidths.
        *(
            Claim(
                f"fig18_wget.size_order_lte{lte}",
                f"At WiFi 1 / LTE {lte} Mbps, the default's completion time (s) grows with the object size",
                paper, {label: table[(size, lte, "minrtt")] for label, size in zip(sizes, SIZES)},
                chain=sizes,
            )
            for lte in (1, 5, 10)
        ),
        # Shape 2: for 1 MB transfers, more LTE bandwidth never hurts much.
        Claim(
            "fig18_wget.lte_helps",
            "The default's 1 MB completion time (s) at LTE 10 Mbps is below the one at LTE 1 Mbps",
            paper, {"lte 10": table[(SIZES[-1], 10, "minrtt")], "lte 1": table[(SIZES[-1], 1, "minrtt")]},
            chain=("lte 10", "lte 1"), op="<",
        ),
        # Shape 3: ECF does not lose to the default on the largest transfers.
        Claim(
            "fig18_wget.ecf_not_slower",
            "At every LTE 1-10 Mbps, ECF's 1 MB completion time (s) is no worse than the default's",
            paper,
            {"ecf": [table[(SIZES[-1], lte, "ecf")] for lte in LTE_MBPS],
             "default": [table[(SIZES[-1], lte, "minrtt")] for lte in LTE_MBPS]},
            chain=("ecf", "default"), scale=1.1,
        ),
    ])
