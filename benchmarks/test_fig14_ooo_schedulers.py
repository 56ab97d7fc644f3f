"""Figure 14: CCDF of out-of-order delay per scheduler, for a strongly
heterogeneous pair (0.3/8.6) and a mildly heterogeneous one (4.2/8.6).

Paper shape: in the heterogeneous configuration ECF has the lightest
tail, the default the heaviest; in the near-symmetric configuration all
schedulers except DAPS are comparable and small.
"""

from bench_common import check_claims, hetero_run, run_once, write_output
from repro.experiments.report import Claim
from repro.metrics.stats import percentile

SCHEDULERS = ("minrtt", "daps", "blest", "ecf")


def test_fig14_ooo_delay_schedulers(benchmark):
    def compute():
        out = {}
        for wifi in (0.3, 4.2):
            out[wifi] = {
                name: hetero_run(name, wifi=wifi, lte=8.6).ooo_delays
                for name in SCHEDULERS
            }
        return out

    data = run_once(benchmark, compute)
    lines = ["config      scheduler  p50_s   p90_s   p99_s"]
    p90 = {}
    for wifi, per_sched in data.items():
        for name, delays in per_sched.items():
            p90[(wifi, name)] = percentile(delays, 90)
            lines.append(
                f"{wifi:3.1f}-8.6    {name:9s}  {percentile(delays, 50):6.3f}  "
                f"{percentile(delays, 90):6.3f}  {percentile(delays, 99):6.3f}"
            )
    write_output("fig14_ooo_schedulers", "\n".join(lines))

    # Shape: under strong heterogeneity ECF's tail is no heavier than the
    # default's; near symmetry everyone is small.
    paper = "ECF has the lightest OOO tail under heterogeneity; all but DAPS small when symmetric"
    check_claims("fig14_ooo_schedulers", [
        Claim(
            "fig14_ooo_schedulers.ecf_tail",
            "ECF's OOO-delay p90 (s) at 0.3-8.6 is no heavier than the default's",
            paper, {"ecf": p90[(0.3, "ecf")], "default": p90[(0.3, "minrtt")]},
            chain=("ecf", "default"), scale=1.05,
        ),
        Claim(
            "fig14_ooo_schedulers.symmetric_tail",
            "ECF's and the default's OOO-delay p90 at 4.2-8.6 are below 0.3 s",
            paper, {"ecf": p90[(4.2, "ecf")], "default": p90[(4.2, "minrtt")]}, op="<", hi=0.3,
        ),
    ])
