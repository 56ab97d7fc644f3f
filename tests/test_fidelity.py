"""Tests for the executable fidelity battery."""

import pytest

from repro.experiments import fidelity
from repro.experiments.fidelity import (
    ALL_CHECKS,
    CheckResult,
    FidelityReport,
    validate_transport,
)


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
        assert check.measured == pytest.approx(goodput_mbps)
        assert check.passed is passed
        assert check.expectation.startswith("7.432..8.258 Mbps")


class TestBattery:
    def test_full_battery_passes(self):
        report = validate_transport()
        assert report.passed, report.summary()

    def test_every_check_has_a_measurement(self):
        report = validate_transport()
        assert len(report.checks) == len(ALL_CHECKS)
        for check in report.checks:
            assert check.measured == check.measured  # not NaN
            assert check.expectation

    def test_summary_renders_all_checks(self):
        report = validate_transport()
        text = report.summary()
        for check in report.checks:
            assert check.name in text


class TestReportMechanics:
    def test_failed_check_fails_report(self):
        report = FidelityReport(checks=[
            CheckResult("good", True, 1.0, "x"),
            CheckResult("bad", False, 0.0, "y"),
        ])
        assert not report.passed
        assert "FAIL" in report.summary()

    def test_empty_report_passes(self):
        assert FidelityReport().passed
