"""Figure 9: bit-rate ratio heat maps for default, ECF, DAPS, and BLEST.

Paper shape: ECF's map is the darkest (closest to ideal) under
heterogeneity; DAPS does not improve on the default and is sometimes
worse; BLEST helps only in a few cells.
"""

from bench_common import GRID_MBPS, check_claims, run_once, scheduler_grid, write_output
from repro.experiments.report import Claim
from repro.experiments.grid import bitrate_ratio_matrix, format_matrix

SCHEDULERS = ("minrtt", "ecf", "daps", "blest")

#: Cells with at least ~4x bandwidth asymmetry.
HETERO_CELLS = [
    (w, l) for w in GRID_MBPS for l in GRID_MBPS
    if max(w, l) / min(w, l) >= 4.0
]


def test_fig09_scheduler_heatmaps(benchmark):
    def compute():
        return {name: scheduler_grid(name) for name in SCHEDULERS}

    grids = run_once(benchmark, compute)
    ratios = {name: bitrate_ratio_matrix(grid) for name, grid in grids.items()}
    sections = []
    for name in SCHEDULERS:
        sections.append(
            f"-- {name} --\n" + format_matrix(ratios[name], GRID_MBPS, GRID_MBPS)
        )
    write_output("fig09_scheduler_heatmaps", "\n\n".join(sections))

    mean = {
        name: sum(ratios[name][cell] for cell in HETERO_CELLS) / len(HETERO_CELLS)
        for name in SCHEDULERS
    }
    paper = "ECF's map darkest under heterogeneity; DAPS no better than the default; BLEST helps in a few cells"
    over = "mean bit-rate ratio over the >= 4x-asymmetric cells"
    check_claims("fig09_scheduler_heatmaps", [
        # ECF dominates the default under heterogeneity...
        Claim(
            "fig09_scheduler_heatmaps.ecf_over_default",
            f"ECF's {over} at least matches the default's",
            paper, {"ecf": mean["ecf"], "default": mean["minrtt"]},
            chain=("ecf", "default"), op=">=",
        ),
        # ...and is the best (or tied best) of all four schedulers there.
        Claim(
            "fig09_scheduler_heatmaps.ecf_best",
            f"ECF's {over} is within 0.02 of the best other scheduler's",
            paper, {"ecf": mean["ecf"], "best other": max(mean[n] for n in SCHEDULERS if n != "ecf")},
            chain=("ecf", "best other"), op=">=", margin=-0.02,
        ),
        # DAPS does not beat ECF.
        Claim(
            "fig09_scheduler_heatmaps.daps_not_above_ecf",
            f"DAPS's {over} exceeds ECF's by at most 0.02",
            paper, {"daps": mean["daps"], "ecf": mean["ecf"]},
            chain=("daps", "ecf"), margin=0.02,
        ),
    ])
