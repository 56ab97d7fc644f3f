"""Tests for the executable fidelity battery."""

import pytest

from repro.experiments import fidelity
from repro.experiments.fidelity import ALL_CHECKS, FidelityReport, validate_transport
from repro.experiments.report import Claim


class TestSinglePathGoodput:
    """The band is [0.9, 1.0] x the wire ceiling, 8.6 x MSS / (MSS +
    HEADER_SIZE) = 8.258 Mbps of payload: above it a transfer would carry
    more payload than the link serialises.  The old 6.45..8.6 band passed
    8.5 Mbps."""

    @pytest.mark.parametrize("goodput_mbps, passed", [(8.5, False), (8.0, True), (7.3, False)])
    def test_band_around_the_wire_ceiling(self, monkeypatch, goodput_mbps, passed):
        elapsed = 10_000_000 * 8 / (goodput_mbps * 1e6)
        monkeypatch.setattr(fidelity, "_timed_transfer", lambda *args: (elapsed, None))
        check = fidelity.check_single_path_goodput()
        assert check.values["goodput"] == pytest.approx(goodput_mbps)
        assert (check.evaluate() == "holds") is passed
        assert check.measured().startswith("7.43204 ≤ goodput") and check.measured().endswith("≤ 8.25782")


class TestBattery:
    def test_full_battery_passes(self):
        report = validate_transport()
        assert report.passed, report.summary()

    def test_every_check_has_a_measurement(self):
        report = validate_transport()
        assert len(report.checks) == len(ALL_CHECKS)
        for check in report.checks:
            assert all(v == v for v in check.values.values())  # not NaN
            assert check.text

    def test_summary_renders_all_checks(self):
        report = validate_transport()
        text = report.summary()
        for check in report.checks:
            assert check.id in text


class TestReportMechanics:
    def test_failed_check_fails_report(self):
        report = FidelityReport(checks=[
            Claim("good", "x", "", {"x": 1.0}, lo=0.5),
            Claim("bad", "y", "", {"y": 0.0}, lo=0.5),
        ])
        assert not report.passed
        assert "FAIL" in report.summary()

    def test_empty_report_passes(self):
        assert FidelityReport().passed
