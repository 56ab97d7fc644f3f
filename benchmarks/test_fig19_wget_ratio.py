"""Figure 19: ECF completion time normalized by the default's, over a
WiFi x LTE in {1..10} Mbps grid, per object size.

Paper shape: ratio ~1 for small transfers (128 kB), at-or-below 1 for
256 kB+ with the gains concentrated in heterogeneous cells; never
meaningfully above 1 ("if ECF ever did worse ... that does not happen").
"""

from bench_common import bench_executor, check_claims, run_once, write_output
from repro.experiments.report import Claim
from repro.experiments.grid import wget_matrix

SIZES = (256 * 1024, 1024 * 1024)
GRID = (1, 2, 4, 6, 8, 10)


def test_fig19_ecf_over_default_ratio(benchmark):
    def compute():
        values = tuple(float(v) for v in GRID)
        matrix = wget_matrix(
            ("minrtt", "ecf"), SIZES, values, values, seed=2,
            executor=bench_executor(),
        )
        return {
            (size, int(wifi), int(lte)): (
                matrix[(size, wifi, lte, "ecf")].completion_time
                / matrix[(size, wifi, lte, "minrtt")].completion_time
            )
            for size in SIZES
            for wifi in values
            for lte in values
        }

    ratios = run_once(benchmark, compute)
    lines = []
    for size in SIZES:
        lines.append(f"-- {size // 1024} kB: ECF time / default time --")
        header = "lte\\wifi " + " ".join(f"{w:6d}" for w in GRID)
        lines.append(header)
        for lte in reversed(GRID):
            row = [f"{lte:8d}"]
            for wifi in GRID:
                row.append(f"{ratios[(size, wifi, lte)]:6.2f}")
            lines.append(" ".join(row))
        lines.append("")
    write_output("fig19_wget_ratio", "\n".join(lines))

    values = list(ratios.values())
    paper = "ratio ~1 at 128 kB; <= 1 with up to 20% gains for larger sizes; never worse"
    check_claims("fig19_wget_ratio", [
        # Shape: ECF never does meaningfully worse anywhere...
        Claim(
            "fig19_wget_ratio.never_worse",
            "No cell's ECF / default completion-time ratio (256 kB and 1 MB) reaches 1.25",
            paper, {"ratio": values}, op="<", hi=1.25,
        ),
        # ...and the mean ratio is at or below parity.
        Claim(
            "fig19_wget_ratio.mean_parity",
            "The mean ECF / default completion-time ratio is at most 1.02",
            paper, {"mean ratio": sum(values) / len(values)}, hi=1.02,
        ),
    ])
