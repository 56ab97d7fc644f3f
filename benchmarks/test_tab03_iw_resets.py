"""Table 3: number of initial-window resets per scheduler at
0.3 Mbps WiFi / 8.6 Mbps LTE.

Paper values (over a 1332 s video): Default 486, DAPS 92, BLEST 382,
ECF 16.  Shape: ECF has by far the fewest resets; the default the most
(or near it).

The table prints the resets on each interface and their total, over the
bench's 120 s video and over the paper's 1332 s one (about 80 s of wall
clock for the four runs).  The claims read the totals; the LTE column is
the fast path, whose idle restarts are the ones ECF exists to avoid.
"""

from bench_common import BENCH_LONG_VIDEO_SECONDS, check_claims, hetero_run, run_once, write_output
from repro.experiments.report import Claim

SCHEDULERS = ("minrtt", "daps", "blest", "ecf")
PAPER = {"minrtt": 486, "daps": 92, "blest": 382, "ecf": 16}
PAPER_VIDEO_SECONDS = 1332.0


def test_tab03_iw_resets(benchmark):
    def compute():
        return {
            video: {
                name: dict(hetero_run(name, wifi=0.3, lte=8.6, video=video).iw_resets_by_interface)
                for name in SCHEDULERS
            }
            for video in (BENCH_LONG_VIDEO_SECONDS, PAPER_VIDEO_SECONDS)
        }

    by_video = run_once(benchmark, compute)
    lines = []
    resets = {}
    for video, by_interface in by_video.items():
        resets[video] = {name: sum(counts.values()) for name, counts in by_interface.items()}
        lines.append(f"-- {video:g} s video --")
        lines.append("scheduler  lte_resets  wifi_resets  total_resets  paper_resets(1332s video)")
        for name in SCHEDULERS:
            counts = by_interface[name]
            lines.append(
                f"{name:9s}  {counts.get('lte', 0):10d}  {counts.get('wifi', 0):11d}"
                f"  {resets[video][name]:12d}  {PAPER[name]:10d}"
            )
        lines.append("")
    write_output("tab03_iw_resets", "\n".join(lines).rstrip())

    short, full = resets[BENCH_LONG_VIDEO_SECONDS], resets[PAPER_VIDEO_SECONDS]
    paper = "Default 486, DAPS 92, BLEST 382, ECF 16 over the 1332 s video"
    check_claims("tab03_iw_resets", [
        # Shape: ECF resets least; the default resets more than ECF.
        Claim(
            "tab03_iw_resets.ecf_fewest",
            "Over the 120 s video, ECF resets no more often than any other scheduler",
            paper, {"ecf": short["ecf"], "fewest other": min(short[n] for n in SCHEDULERS if n != "ecf")},
            chain=("ecf", "fewest other"),
        ),
        Claim(
            "tab03_iw_resets.default_over_ecf",
            "Over the 120 s video, the default resets more often than ECF",
            paper, {"default": short["minrtt"], "ecf": short["ecf"]},
            chain=("default", "ecf"), op=">",
        ),
        Claim(
            "tab03_iw_resets.paper_scale_ecf_fifth",
            "Over the 1332 s video, ECF resets at most a fifth as often as the default",
            paper, {"ecf": full["ecf"], "default": full["minrtt"]},
            chain=("ecf", "default"), scale=0.2,
        ),
        Claim(
            "tab03_iw_resets.paper_scale_daps_between",
            "Over the 1332 s video, DAPS resets more often than ECF and less often than BLEST",
            paper, {"ecf": full["ecf"], "daps": full["daps"], "blest": full["blest"]},
            chain=("ecf", "daps", "blest"), op="<", pending="ROADMAP item 2",
        ),
    ])
