"""Figure 10: fast-subflow traffic fraction for BLEST and ECF vs ideal.

Paper shape: ECF tracks the ideal allocation more closely than BLEST
(and than the default of Fig 7) wherever paths are heterogeneous.
"""

from bench_common import GRID_MBPS, check_claims, run_once, scheduler_grid, write_output
from repro.experiments.report import Claim
from repro.experiments.grid import fraction_fast_matrix
from repro.experiments.ideal import ideal_fast_fraction

HETERO_CELLS = [
    (w, l) for w in GRID_MBPS for l in GRID_MBPS
    if max(w, l) / min(w, l) >= 4.0
]


def test_fig10_fraction_blest_ecf(benchmark):
    def compute():
        return {name: scheduler_grid(name) for name in ("minrtt", "blest", "ecf")}

    grids = run_once(benchmark, compute)
    fractions = {name: fraction_fast_matrix(grid) for name, grid in grids.items()}
    lines = ["wifi-lte   default  blest    ecf     ideal"]
    deficits = {name: 0.0 for name in fractions}
    for wifi in GRID_MBPS:
        for lte in GRID_MBPS:
            ideal = ideal_fast_fraction(max(wifi, lte), min(wifi, lte))
            row = [f"{wifi:3.1f}-{lte:3.1f}  "]
            for name in ("minrtt", "blest", "ecf"):
                value = fractions[name][(wifi, lte)]
                row.append(f"{value:7.3f}")
                if (wifi, lte) in HETERO_CELLS:
                    # The paper's concern is *under*-utilizing the fast
                    # path; exceeding the ideal share is benign (Fig 10's
                    # own 8.6-8.6 cell sits above ideal).
                    deficits[name] += max(0.0, ideal - value)
            row.append(f"  {ideal:5.3f}")
            lines.append(" ".join(row))
    lines.append(
        f"\n# fast-path under-allocation vs ideal over heterogeneous cells: {deficits}"
    )
    write_output("fig10_fraction_ecf", "\n".join(lines))

    # Shape: ECF under-allocates the fast subflow no more than the default.
    check_claims("fig10_fraction_ecf", [
        Claim(
            "fig10_fraction_ecf.ecf_deficit",
            "ECF's fast-subflow under-allocation, summed over the >= 4x-asymmetric cells, is at most the default's",
            "ECF tracks the ideal fast-subflow share closely; BLEST and the default under-allocate",
            {"ecf": deficits["ecf"], "default": deficits["minrtt"]},
            chain=("ecf", "default"), scale=1.05, margin=0.02,
        ),
    ])
