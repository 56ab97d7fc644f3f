"""Tests for the Web workload and bandwidth scenarios."""

import pytest

from repro.net.profiles import lte_config, wifi_config
from repro.workloads.scenarios import random_bandwidth_scenarios
from repro.workloads.web import (
    BROWSER_CONNECTIONS,
    CNN_OBJECT_COUNT,
    WebBrowsingSpec,
    WebPage,
    cnn_like_page,
    run_web,
)


def test_packages_export_the_spec_and_its_typed_runner_only():
    import repro.apps
    import repro.workloads

    assert set(repro.apps.__all__) == {
        "HttpSession", "GetResult",
        "BulkDownloadSpec", "BulkDownloadResult", "run_bulk",
    }
    assert set(repro.workloads.__all__) == {
        "WebPage", "cnn_like_page",
        "WebBrowsingSpec", "WebBrowsingResult", "run_web",
        "random_bandwidth_scenarios",
    }
    for package in (repro.apps, repro.workloads):
        assert all(hasattr(package, name) for name in package.__all__)


class TestPageModel:
    def test_object_count_matches_cnn(self):
        assert len(cnn_like_page()) == CNN_OBJECT_COUNT

    def test_deterministic_for_seed(self):
        assert cnn_like_page(seed=1).object_sizes == cnn_like_page(seed=1).object_sizes

    def test_seeds_differ(self):
        assert cnn_like_page(seed=1).object_sizes != cnn_like_page(seed=2).object_sizes

    def test_size_mix_is_heavy_tailed(self):
        # Golden bumped when cnn_like_page moved from ad-hoc
        # random.Random(seed) to an RngRegistry stream: the default
        # draw's total is ~11.6 MB, a high-but-legitimate sample of the
        # mix (p5-p95 across seeds is roughly 4-10 MB).
        page = cnn_like_page()
        sizes = sorted(page.object_sizes)
        assert sizes[0] < 10_000
        assert sizes[-1] > 100_000
        assert 1_000_000 < page.total_bytes < 16_000_000

    def test_total_bytes(self):
        page = WebPage((100, 200))
        assert page.total_bytes == 300


class TestWebBrowsing:
    PATHS = (wifi_config(5.0), lte_config(5.0))

    def test_page_load_completes(self):
        result = run_web(WebBrowsingSpec("minrtt", self.PATHS, seed=3))
        assert result.complete
        assert result.objects_completed == CNN_OBJECT_COUNT
        assert len(result.object_completion_times) == CNN_OBJECT_COUNT

    def test_page_load_time_set(self):
        result = run_web(WebBrowsingSpec("minrtt", self.PATHS, seed=3))
        assert result.page_load_time >= max(result.object_completion_times)

    def test_small_page_and_fewer_connections(self):
        result = run_web(WebBrowsingSpec(
            "ecf", self.PATHS, object_sizes=(10_000, 20_000, 30_000), connections=2
        ))
        assert result.complete
        assert result.total_objects == 3

    def test_all_schedulers_complete(self):
        for name in ("minrtt", "ecf", "blest", "daps"):
            result = run_web(WebBrowsingSpec(
                name, self.PATHS, object_sizes=(20_000,) * 12
            ))
            assert result.complete, name

    def test_ooo_delays_collected(self):
        result = run_web(WebBrowsingSpec(
            "minrtt", (wifi_config(1.0), lte_config(10.0)), seed=3
        ))
        assert result.ooo_delays  # some packets always recorded

    def test_mean_completion_time(self):
        result = run_web(WebBrowsingSpec(
            "minrtt", self.PATHS, object_sizes=(10_000, 10_000)
        ))
        assert result.mean_completion_time == pytest.approx(
            sum(result.object_completion_times) / 2
        )


class TestScenarios:
    def test_count_and_determinism(self):
        a = random_bandwidth_scenarios(count=3, duration=200.0)
        b = random_bandwidth_scenarios(count=3, duration=200.0)
        assert len(a) == 3
        for left, right in zip(a, b):
            assert left.wifi.schedule == right.wifi.schedule
            assert left.lte.schedule == right.lte.schedule

    def test_scenarios_differ_from_each_other(self):
        scenarios = random_bandwidth_scenarios(count=2, duration=500.0)
        assert scenarios[0].wifi.schedule != scenarios[1].wifi.schedule

    def test_wifi_and_lte_are_independent(self):
        scenario = random_bandwidth_scenarios(count=1, duration=500.0)[0]
        assert scenario.wifi.schedule != scenario.lte.schedule

    def test_count_validation(self):
        with pytest.raises(ValueError):
            random_bandwidth_scenarios(count=0)
