"""Figure 7: fraction of traffic on the fast subflow, default scheduler,
against the ideal (bandwidth-share) fraction.

Paper shape: the default scheduler under-allocates the fast subflow
relative to the fluid ideal whenever paths are heterogeneous.
"""

from bench_common import GRID_MBPS, check_claims, run_once, scheduler_grid, write_output
from repro.experiments.report import Claim
from repro.experiments.grid import fraction_fast_matrix
from repro.experiments.ideal import ideal_fast_fraction


def test_fig07_default_fraction(benchmark):
    grid = run_once(benchmark, lambda: scheduler_grid("minrtt"))
    fractions = fraction_fast_matrix(grid)
    lines = ["wifi-lte   measured  ideal"]
    measured_hetero, ideal_hetero = [], []
    for wifi in GRID_MBPS:
        for lte in GRID_MBPS:
            fast, slow = max(wifi, lte), min(wifi, lte)
            ideal = ideal_fast_fraction(fast, slow)
            measured = fractions[(wifi, lte)]
            lines.append(f"{wifi:3.1f}-{lte:3.1f}   {measured:8.3f}  {ideal:5.3f}")
            if fast / slow >= 4.0:  # strongly heterogeneous cells
                measured_hetero.append(measured)
                ideal_hetero.append(ideal)
    write_output("fig07_fraction_default", "\n".join(lines))

    # Shape: under strong heterogeneity, the default scheduler puts less
    # on the fast path than the ideal share on average.
    n = len(measured_hetero)
    check_claims("fig07_fraction_default", [
        Claim(
            "fig07_fraction_default.under_allocates",
            "Over the >= 4x-asymmetric cells, the default's mean fast-subflow fraction is below the ideal's",
            "the default under-allocates the fast subflow vs the fluid ideal",
            {"measured": sum(measured_hetero) / n, "ideal": sum(ideal_hetero) / n},
            chain=("measured", "ideal"), op="<",
        ),
    ])
