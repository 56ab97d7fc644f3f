"""Comparator verdicts on synthetic A/B reports."""

import statistics

from compare import compare, verdict

CONTRACT = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    ]
}


def cell(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "n": len(values), "values": list(values),
    }


def report(wall, jobs, failed=0, digest="d", events=100):
    return {
        "workloads": {
            "w": {
                "attempted": 10, "failed": failed, "digest": digest,
                "end_to_end": {"wall_s": cell(wall), "jobs_per_s": cell(jobs)},
                "per_layer": {"sim.engine.events": events, "sim.gc.time_share": 0.1},
            }
        }
    }


TIGHT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00]


def scaled(values, factor):
    return [v * factor for v in values]


def test_same_within_the_bound():
    assert verdict(cell(TIGHT), cell(scaled(TIGHT, 1.05)), "lower", 0.10)[0] == "same"
    assert verdict(cell(TIGHT), cell(scaled(TIGHT, 0.99)), "lower", 0.10)[0] == "same"


def test_worse_beyond_the_bound_in_either_direction():
    assert verdict(cell(TIGHT), cell(scaled(TIGHT, 1.2)), "lower", 0.10)[0] == "worse"
    assert verdict(cell(TIGHT), cell(scaled(TIGHT, 0.8)), "higher", 0.10)[0] == "worse"


def test_better_needs_clear_quartiles_and_more_than_the_parents_spread():
    assert verdict(cell(TIGHT), cell(scaled(TIGHT, 0.8)), "lower", 0.10)[0] == "better"
    assert verdict(cell(TIGHT), cell(scaled(TIGHT, 1.2)), "higher", 0.10)[0] == "better"


def test_unresolved_when_the_parent_is_noisier_than_the_bound_and_runs_overlap():
    noisy = [1.0, 1.3, 0.8, 1.1, 0.9, 1.25, 0.85]
    word, _ = verdict(cell(noisy), cell(scaled(noisy, 1.15)), "lower", 0.10)
    assert word == "unresolved"
    # ... unless every run of B is on one side of every run of A.
    assert verdict(cell(noisy), cell(scaled(noisy, 2.0)), "lower", 0.10)[0] == "worse"
    assert verdict(cell(noisy), cell(scaled(noisy, 0.5)), "lower", 0.10)[0] == "better"


def test_compare_accepts_an_a_a_pair():
    a = report(TIGHT, scaled(TIGHT, 100))
    lines, ok = compare(a, a, CONTRACT)
    assert ok
    text = "\n".join(lines)
    assert "sim_identical: yes" in text and "counts_identical: yes" in text
    assert "worse" not in text and "unresolved" not in text


def test_compare_rejects_worse_and_a_rise_in_failed_share():
    a = report(TIGHT, scaled(TIGHT, 100))
    slow = report(scaled(TIGHT, 1.3), scaled(TIGHT, 100))
    assert not compare(a, slow, CONTRACT)[1]
    failing = report(TIGHT, scaled(TIGHT, 100), failed=1)
    lines, ok = compare(a, failing, CONTRACT)
    assert not ok and any("failed_share rose" in line for line in lines)


def test_compare_reports_moved_digests_and_counts_without_rejecting():
    a = report(TIGHT, scaled(TIGHT, 100))
    b = report(TIGHT, scaled(TIGHT, 100), digest="other", events=101)
    lines, ok = compare(a, b, CONTRACT)
    assert ok
    text = "\n".join(lines)
    assert "sim_identical: no" in text and "counts_identical: no" in text
    assert "sim.engine.events: 100 -> 101" in text
