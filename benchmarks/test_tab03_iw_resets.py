"""Table 3: number of initial-window resets per scheduler at
0.3 Mbps WiFi / 8.6 Mbps LTE.

Paper values (over a 1332 s video): Default 486, DAPS 92, BLEST 382,
ECF 16.  Shape: ECF has by far the fewest resets; the default the most
(or near it).

The table prints the resets on each interface and their total.  The
shape asserts read the total; the LTE column is the fast path, whose
idle restarts are the ones ECF exists to avoid.
"""

from bench_common import hetero_run, run_once, write_output

SCHEDULERS = ("minrtt", "daps", "blest", "ecf")
PAPER = {"minrtt": 486, "daps": 92, "blest": 382, "ecf": 16}


def test_tab03_iw_resets(benchmark):
    def compute():
        return {
            name: dict(hetero_run(name, wifi=0.3, lte=8.6).iw_resets_by_interface)
            for name in SCHEDULERS
        }

    by_interface = run_once(benchmark, compute)
    resets = {name: sum(counts.values()) for name, counts in by_interface.items()}
    lines = ["scheduler  lte_resets  wifi_resets  total_resets  paper_resets(1332s video)"]
    for name in SCHEDULERS:
        counts = by_interface[name]
        lines.append(
            f"{name:9s}  {counts.get('lte', 0):10d}  {counts.get('wifi', 0):11d}"
            f"  {resets[name]:12d}  {PAPER[name]:10d}"
        )
    write_output("tab03_iw_resets", "\n".join(lines))

    # Shape: ECF resets least; the default resets more than ECF.
    assert resets["ecf"] == min(resets.values())
    assert resets["minrtt"] > resets["ecf"]
