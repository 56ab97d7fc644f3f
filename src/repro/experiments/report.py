"""The paper's claims as checked records, and the verdict table they render.

Each benchmark harness writes its table to ``benchmarks/output/<figure>.txt``
and its claims about it to ``<figure>.claims.json`` beside it, one
:class:`Claim` each, and asserts on their verdicts; ``python -m repro.cli
report`` prints EXPERIMENTS.md's verdict table from the committed records.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: Paper order and titles of the verdict table.
FIGURE_INDEX: Tuple[Tuple[str, str], ...] = (
    ("fig01_onoff", "Figure 1: ON-OFF download behaviour"),
    ("fig02_default_heatmap", "Figure 2: bit-rate ratio, default scheduler"),
    ("fig03_sndbuf", "Figure 3: send-buffer occupancy"),
    ("fig05_lastpacket", "Figure 5: last-packet time difference CDF"),
    ("fig06_cwnd_reset", "Figure 6: throughput with/without CWND reset"),
    ("fig07_fraction_default", "Figure 7: fast-subflow fraction, default"),
    ("tab02_rtt", "Table 2: average RTT per bandwidth regulation"),
    ("fig09_scheduler_heatmaps", "Figure 9: bit-rate ratio, all schedulers"),
    ("fig10_fraction_ecf", "Figure 10: fast-subflow fraction, BLEST/ECF"),
    ("fig11_12_cwnd_traces", "Figures 11-12: CWND traces"),
    ("tab03_iw_resets", "Table 3: initial-window resets"),
    ("fig13_ooo_default", "Figure 13: out-of-order delay, default"),
    ("fig14_ooo_schedulers", "Figure 14: out-of-order delay, all schedulers"),
    ("fig15_four_subflows", "Figure 15: four subflows"),
    ("fig16_random_bw", "Figure 16: random bandwidth scenarios"),
    ("fig17_chunk_trace", "Figure 17: per-chunk throughput trace"),
    ("fig18_wget", "Figure 18: wget completion times"),
    ("fig19_wget_ratio", "Figure 19: ECF/default completion ratio"),
    ("fig20_21_web", "Figures 20-21: Web browsing, testbed"),
    ("fig22_wild_streaming", "Figure 22: streaming in the wild"),
    ("fig23_tab04_wild_web", "Figure 23 / Table 4: Web browsing in the wild"),
    ("ext_shared_bottleneck", "Extension: coupled-CC fairness on a shared bottleneck"),
    ("ext_mpdash", "Extension: ECF vs MP-DASH-style path management"),
    ("ablation_beta", "Ablation: ECF hysteresis beta"),
    ("ablation_second_inequality", "Ablation: ECF second inequality"),
    ("ablation_congestion_control", "Ablation: congestion controller"),
)

Values = Dict[str, Union[float, List[float]]]
OPS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class Claim:
    """One claim of the paper about a figure, and the measured values it reads.

    With a ``chain`` it is an ordering: each named value stands in ``op``
    to the next one times ``scale`` plus ``margin``, element by element
    where the values are series.  Without, it is a band: every value
    within ``lo op x op hi`` (``op`` is ``<=`` or ``<``; ``None`` is open).
    ``pending`` names the ROADMAP item that a claim failing today awaits.
    """

    id: str
    text: str
    paper: str
    values: Values
    chain: Tuple[str, ...] = ()
    op: str = "<="
    scale: float = 1.0
    margin: float = 0.0
    lo: Optional[float] = None
    hi: Optional[float] = None
    pending: str = ""
    verdict: str = ""

    def evaluate(self, values: Optional[Values] = None) -> str:
        """``holds`` or ``fails``, from ``values`` (by default the record's own)."""
        v = {k: x if isinstance(x, list) else [x] for k, x in (values or self.values).items()}
        pairs = [
            (a, b * self.scale + self.margin)
            for low, high in zip(self.chain, self.chain[1:]) for a, b in zip(v[low], v[high])
        ] if self.chain else [
            (a, b) for xs in v.values() for x in xs
            for a, b in ((self.lo, x), (x, self.hi)) if a is not None and b is not None
        ]
        return "holds" if all(OPS[self.op](a, b) for a, b in pairs) else "fails"

    def measured(self) -> str:
        """The relation with the measured values in place, for the table."""
        def show(name: str) -> str:
            v = self.values[name]
            return f"{name} {min(v):.3g}..{max(v):.3g} (n={len(v)})" if isinstance(v, list) else f"{name} {v:.3g}"

        op = f" {self.op} ".replace("<=", "≤").replace(">=", "≥")
        if not self.chain:
            lo = "" if self.lo is None else f"{self.lo:g}{op}"
            return lo + ", ".join(map(show, self.values)) + ("" if self.hi is None else f"{op}{self.hi:g}")
        scale = "" if self.scale == 1 else f"{self.scale:g} × "
        return f"{op}{scale}".join(map(show, self.chain)) + (f" {self.margin:+g}" if self.margin else "")


def load_claims(output_dir: Path) -> Dict[str, List[Claim]]:
    """The committed records under ``output_dir``, per figure, in paper order."""
    return {
        name: [Claim(**dict(c, chain=tuple(c["chain"]))) for c in json.loads(path.read_text())]
        for name, _ in FIGURE_INDEX
        for path in [output_dir / f"{name}.claims.json"] if path.exists()
    }


def render(output_dir: Path) -> str:
    """EXPERIMENTS.md's verdict table, one row per committed claim."""
    label = {name: title.split(":")[0] for name, title in FIGURE_INDEX}
    rows = ["| Figure | Claim | Paper | Measured | Verdict |", "|---|---|---|---|---|"]
    for name, claims in load_claims(output_dir).items():
        for c in claims:
            verdict = f"{c.verdict} (awaits {c.pending})" if c.pending else c.verdict
            rows.append(f"| {label[name]} | {c.text} | {c.paper} | {c.measured()} | {verdict} |")
    return "\n".join(rows) + "\n"


def default_output_dir(start: Optional[Path] = None) -> Path:
    """Locate ``benchmarks/output`` relative to the repository root."""
    base = start or Path.cwd()
    for candidate in (base, *base.parents):
        output = candidate / "benchmarks" / "output"
        if output.is_dir():
            return output
    return base / "benchmarks" / "output"
