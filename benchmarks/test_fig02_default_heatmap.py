"""Figure 2: measured/ideal bit-rate heat map, default scheduler, 6x6 grid.

Paper shape: near-1 on the diagonal and in the high-bandwidth corner,
clearly degraded where paths are heterogeneous (one fast, one slow), worst
when the primary (WiFi) is the slow path.
"""

from bench_common import GRID_MBPS, check_claims, run_once, scheduler_grid, write_output
from repro.experiments.report import Claim
from repro.experiments.grid import bitrate_ratio_matrix, format_matrix


def test_fig02_default_bitrate_ratio(benchmark):
    grid = run_once(benchmark, lambda: scheduler_grid("minrtt"))
    ratios = bitrate_ratio_matrix(grid)
    write_output(
        "fig02_default_heatmap",
        "Ratio of measured vs ideal average bit rate (default scheduler)\n"
        + format_matrix(ratios, GRID_MBPS, GRID_MBPS),
    )

    paper = "~1.0 on the diagonal, down to ~0.25 in the heterogeneous corners"
    check_claims("fig02_default_heatmap", [
        # Symmetric high-bandwidth corner close to ideal...
        Claim(
            "fig02_default_heatmap.symmetric_corner",
            "The default's bit-rate ratio at WiFi 8.6 / LTE 8.6 is close to ideal",
            paper, {"8.6/8.6": ratios[(8.6, 8.6)]}, op="<", lo=0.75,
        ),
        # ...while strongly heterogeneous cells fall short of it.
        Claim(
            "fig02_default_heatmap.hetero_corner",
            "The worse heterogeneous corner (0.3/8.6 or 8.6/0.3) falls short of the 8.6/8.6 corner",
            paper, {"hetero": min(ratios[(0.3, 8.6)], ratios[(8.6, 0.3)]), "8.6/8.6": ratios[(8.6, 8.6)]},
            chain=("hetero", "8.6/8.6"), op="<",
        ),
        Claim(
            "fig02_default_heatmap.fractions",
            "Every cell's ratio is a fraction of ideal",
            paper, {"ratio": list(ratios.values())}, lo=0.0, hi=1.0,
        ),
    ])
