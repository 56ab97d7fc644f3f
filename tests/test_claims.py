"""One home per verdict: the paper's claims as checked records.

Each benchmark harness writes its claims to
``benchmarks/output/<figure>.claims.json`` (see
``repro.experiments.report``).  These tests hold EXPERIMENTS.md's
verdict table to the rendering of the committed records, every record to
the verdict its values give, and every ordering claim to a verdict that
flips when its series are swapped -- a claim that cannot fail carries no
evidence.  Nothing else re-runs a harness when the simulator changes, so
a small canary (``TestCommittedValuesAreCurrent``, under a second)
re-measures a few committed values and requires them bit for bit.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.report import FIGURE_INDEX, Claim, default_output_dir, load_claims, render

ROOT = Path(__file__).parent.parent
OUTPUT = ROOT / "benchmarks" / "output"
CLAIMS = [claim for claims in load_claims(OUTPUT).values() for claim in claims]
ORDERINGS = [claim for claim in CLAIMS if claim.chain]

#: Ordering claims whose swapped series give the same verdict, each with
#: the ROADMAP item that is to make its series differ.  Strict: a claim
#: that starts to flip fails here until its entry goes.
CANNOT_FLIP = {
    # DAPS equals minRTT (ROADMAP Finding 2).
    "tab03_iw_resets.paper_scale_daps_between": "ROADMAP item 2: DAPS's resets equal minRTT's",
    "fig09_scheduler_heatmaps.daps_not_above_ecf":
        "ROADMAP items 2 and 1(d): DAPS's map is minRTT's, and ECF's lead at 60 s is under the margin",
    # ECF's lead at bench scale is inside the claim's margin.
    "fig09_scheduler_heatmaps.ecf_best": "ROADMAP item 1(d): ECF's lead at 60 s is under the 0.02 margin",
    "fig15_four_subflows.ecf_over_default": "ROADMAP item 1(d): ECF's lead at 60 s is under the 5 % margin",
    "fig17_chunk_trace.ecf_comparable": "ROADMAP item 1(d): ECF's lead is under the 10 % margin",
    "fig20_21_web.hetero_completion": "ROADMAP item 1(d): ECF's lead is under the 5 % margin",
    "fig20_21_web.hetero_completion_p99": "ROADMAP item 1(d): ECF's lead is under the 5 % margin",
    "ablation_congestion_control.olia": "ROADMAP item 1(d): ECF's lead under OLIA is under the 5 % margin",
    "ext_mpdash.starved_wifi": "ROADMAP item 1(d): ECF and MP-DASH are within the 5 % margin",
    # Parity claims: the paper states no ordering the swap could break.
    "fig18_wget.ecf_not_slower": "ROADMAP item 1(f): the paper calls the schedulers statistically close",
    "fig20_21_web.symmetric_completion": "ROADMAP item 1(f): the paper has all schedulers equal at 5/5",
    "ext_mpdash.lte_share": "ROADMAP item 1(f): every scheduler leans on LTE alike where WiFi starves",
    "ablation_second_inequality.0.3-8.6": "ROADMAP item 1(f): the second inequality decides nothing here",
    "ablation_second_inequality.4.2-8.6": "ROADMAP item 1(f): the second inequality decides nothing here",
    "ablation_second_inequality.8.6-8.6": "ROADMAP item 1(f): the second inequality decides nothing here",
}


def verdict_table(text: str) -> str:
    """The table under EXPERIMENTS.md's ``## Verdicts`` heading."""
    start = text.index("## Verdicts\n\n") + len("## Verdicts\n\n")
    return text[start : text.index("\n\n", start)] + "\n"


class TestRecords:
    def test_every_figure_has_records(self):
        for name, _ in FIGURE_INDEX:
            assert (OUTPUT / f"{name}.txt").exists(), name
            assert (OUTPUT / f"{name}.claims.json").exists(), name
        assert sorted(p.name for p in OUTPUT.iterdir()) == sorted(
            f"{name}{suffix}" for name, _ in FIGURE_INDEX for suffix in (".txt", ".claims.json")
        )

    def test_index_covers_every_paper_item(self):
        names = [name for name, _ in FIGURE_INDEX]
        # Every evaluated table/figure of the paper appears exactly once.
        for required in (
            "fig02", "fig05", "fig06", "fig07", "tab02", "fig09", "fig10",
            "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
            "tab03", "fig22",
        ):
            assert any(required in n for n in names), required
        assert len(names) == len(set(names))

    def test_claim_ids_are_unique_and_name_their_figure(self):
        assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)
        for name, claims in load_claims(OUTPUT).items():
            assert claims, name
            assert all(claim.id.startswith(f"{name}.") for claim in claims)

    @pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
    def test_every_record_re_evaluates_to_its_verdict(self, claim):
        assert claim.verdict == claim.evaluate()
        assert set(claim.chain) <= set(claim.values)
        assert claim.chain or claim.lo is not None or claim.hi is not None

    def test_default_output_dir_found_from_repo(self):
        output = default_output_dir(Path(__file__).parent)
        assert output.name == "output"
        assert output.parent.name == "benchmarks"


class TestEvaluator:
    def test_band(self):
        band = Claim("x.band", "", "", {"a": 0.5, "b": [0.1, 0.9]}, lo=0.0, hi=1.0)
        assert band.evaluate() == "holds"
        assert band.evaluate({"a": 0.5, "b": [0.1, 1.1]}) == "fails"
        assert Claim("x.open", "", "", {"a": 1.0}, op="<", lo=1.0).evaluate() == "fails"
        assert Claim("x.edge", "", "", {"a": 1.0}, lo=1.0).evaluate() == "holds"

    def test_chain_with_scale_and_margin(self):
        claim = Claim("x.chain", "", "", {"ecf": 1.04, "default": 1.0}, chain=("ecf", "default"), scale=1.05)
        assert claim.evaluate() == "holds"
        assert claim.evaluate({"ecf": 1.06, "default": 1.0}) == "fails"
        margin = Claim("x.margin", "", "", {"a": 0.51, "b": 0.5}, chain=("a", "b"), margin=0.02)
        assert margin.evaluate() == "holds"
        below = Claim("x.ge", "", "", {"a": 0.96, "b": 1.0}, chain=("a", "b"), op=">=", scale=0.95)
        assert below.evaluate() == "holds"

    def test_chain_of_three_and_of_series(self):
        three = Claim("x.three", "", "", {"a": 1, "b": 2, "c": 3}, chain=("a", "b", "c"), op="<")
        assert three.evaluate() == "holds"
        assert three.evaluate({"a": 1, "b": 3, "c": 3}) == "fails"
        series = Claim("x.series", "", "", {"a": [1, 2], "b": [2, 3]}, chain=("a", "b"), op="<")
        assert series.evaluate() == "holds"
        assert series.evaluate({"a": [1, 3], "b": [2, 3]}) == "fails"

    def test_measured_spells_the_relation(self):
        claim = Claim("x.m", "", "", {"ecf": 0.5, "default": [0.25, 1.0]}, chain=("ecf", "default"), scale=1.05)
        assert claim.measured() == "ecf 0.5 ≤ 1.05 × default 0.25..1 (n=2)"
        band = Claim("x.b", "", "", {"r": 0.7}, op="<", lo=0.0, hi=1.0)
        assert band.measured() == "0 < r 0.7 < 1"


class TestCli:
    def test_report_prints_the_experiments_md_table(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert out == render(OUTPUT)
        assert out == verdict_table((ROOT / "EXPERIMENTS.md").read_text())

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "verdicts.md"
        assert main(["report", "--output", str(target)]) == 0
        assert target.read_text() == render(OUTPUT)

    def test_no_verdict_is_typed_by_hand(self):
        """Outside the rendered table no cell of a markdown table in the
        docs states a verdict (the hand-kept table's cells read
        ``reproduced, compressed``, ``partial: ...`` and the like)."""
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        documents = [experiments.replace(verdict_table(experiments), ""), (ROOT / "README.md").read_text()]
        documents += [path.read_text() for path in sorted((ROOT / "docs").glob("*.md"))]
        for text in documents:
            for line in text.splitlines():
                for cell in line.split("|")[1:-1] if line.startswith("|") else []:
                    words = [word.strip(":,.") for word in cell.split()]
                    assert "reproduced" not in words, line
                    assert words[:1] not in (["holds"], ["fails"], ["partial"]), line


def flip_marks(claim):
    reason = CANNOT_FLIP.get(claim.id)
    return pytest.param(claim, id=claim.id, marks=[pytest.mark.xfail(strict=True, reason=reason)] if reason else [])


class TestSwappedSeriesFlip:
    """ROADMAP item 1(b): swap the two series of an ordering claim (or
    reverse a longer chain) and its verdict must flip."""

    @pytest.mark.parametrize("claim", [flip_marks(claim) for claim in ORDERINGS])
    def test_swapping_the_series_flips_the_verdict(self, claim):
        swapped = dict(claim.values, **dict(zip(claim.chain, [claim.values[n] for n in reversed(claim.chain)])))
        assert claim.evaluate(swapped) != claim.verdict

    def test_every_exception_is_a_live_ordering_claim(self):
        assert set(CANNOT_FLIP) <= {claim.id for claim in ORDERINGS}
        assert all("ROADMAP item" in reason for reason in CANNOT_FLIP.values())


def harness(name, monkeypatch):
    """Load ``benchmarks/<name>.py`` as a module (its ``bench_common``
    import resolves from ``benchmarks/``)."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    spec = importlib.util.spec_from_file_location(f"harness_{name}", ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed(claim_id):
    return next(claim for claim in CLAIMS if claim.id == claim_id).values


class TestCommittedValuesAreCurrent:
    """A simulator change that moves a committed measurement fails here
    until the harnesses are re-run and their outputs committed."""

    @pytest.mark.parametrize("iface", ["wifi", "lte"])
    @pytest.mark.parametrize("bw", [0.3, 0.7, 1.1, 1.7, 4.2, 8.6])
    def test_table_2_cell(self, iface, bw, monkeypatch):
        tab02 = harness("test_tab02_rtt", monkeypatch)
        assert bw in tab02.BANDWIDTHS
        config = {"wifi": tab02.wifi_config, "lte": tab02.lte_config}[iface]
        measured = tab02.measure_rtt(config, bw)
        assert measured == committed(f"tab02_rtt.{iface}_falls")[f"{bw:g}"]

    def test_ecf_web_cell_at_1_10(self, monkeypatch):
        web = harness("test_fig20_21_web", monkeypatch)
        result = web.run_web(web.WebBrowsingSpec(scheduler="ecf", path_configs=web.CONFIGS["1.0-10.0"], seed=4))
        assert result.mean_completion_time == committed("fig20_21_web.hetero_completion")["ecf"]
        assert web.percentile(result.ooo_delays, 99) == committed("fig20_21_web.hetero_ooo_p99")["ecf"]
