"""Executable fidelity checks: the DESIGN.md invariants as library calls.

Downstream users extending the simulator (new schedulers, new congestion
controllers, different link models) can re-validate the substrate with
one call::

    from repro.experiments.fidelity import validate_transport
    report = validate_transport()
    assert report.passed, report.summary()

Each check is cheap (a few seconds in total) and returns measured values
so drift can be inspected rather than just detected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.core.spec import SchedulerSpec, build
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.packet import HEADER_SIZE, MSS
from repro.net.profiles import lte_config, make_path, wifi_config
from repro.sim.engine import Simulator


@dataclass
class CheckResult:
    """Outcome of one fidelity check."""

    name: str
    passed: bool
    measured: float
    expectation: str


@dataclass
class FidelityReport:
    """All check outcomes plus convenience accessors."""

    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for check in self.checks:
            status = "ok  " if check.passed else "FAIL"
            lines.append(
                f"[{status}] {check.name}: measured {check.measured:.4g} "
                f"(expected {check.expectation})"
            )
        return "\n".join(lines)


def _timed_transfer(scheduler: str, configs, nbytes: int, cc: str = "coupled") -> Tuple[float, MptcpConnection]:
    sim = Simulator()
    paths = [make_path(sim, pc) for pc in configs]
    conn = MptcpConnection(
        sim, paths, build(SchedulerSpec.of(scheduler)),
        config=ConnectionConfig(handshake_delays=False, congestion_control=cc),
    )
    conn.write(nbytes)
    sim.run(until=600.0)
    if conn.delivered_bytes != nbytes:
        return float("inf"), conn
    return max(conn.receiver.last_arrival_by_subflow.values()), conn


def check_single_path_goodput() -> CheckResult:
    """A saturating transfer achieves 90-100% of the wire ceiling: the
    link rate times a full segment's payload share, MSS / (MSS + HEADER_SIZE)."""
    ceiling = 8.6 * MSS / (MSS + HEADER_SIZE)
    elapsed, _ = _timed_transfer("minrtt", [lte_config(8.6)], 10_000_000)
    goodput = 10_000_000 * 8 / elapsed / 1e6
    return CheckResult(
        name="single_path_goodput",
        passed=0.9 * ceiling <= goodput <= ceiling,
        measured=goodput,
        expectation=f"{0.9 * ceiling:.3f}..{ceiling:.3f} Mbps of payload on an 8.6 Mbps link",
    )


def check_aggregation() -> CheckResult:
    """Two homogeneous paths beat one by a clear margin."""
    single, _ = _timed_transfer("minrtt", [wifi_config(8.6)], 10_000_000)
    double, _ = _timed_transfer(
        "minrtt", [wifi_config(8.6), lte_config(8.6)], 10_000_000
    )
    speedup = single / double if double > 0 else 0.0
    return CheckResult(
        name="two_path_aggregation",
        passed=speedup > 1.4,
        measured=speedup,
        expectation="speedup > 1.4x with a second equal path",
    )


def check_delivery_exactness() -> CheckResult:
    """The in-order stream is exact under heterogeneity."""
    _, conn = _timed_transfer(
        "ecf", [wifi_config(0.3), lte_config(8.6)], 2_000_000
    )
    exact = (
        conn.receiver.expected_dsn == 2_000_000
        and conn.receiver.buffered_bytes == 0
    )
    return CheckResult(
        name="delivery_exactness",
        passed=exact,
        measured=float(conn.receiver.expected_dsn),
        expectation="2000000 bytes delivered gaplessly",
    )


def check_bufferbloat_rtt() -> CheckResult:
    """Saturating a 0.3 Mbps regulation inflates RTT to the second scale."""
    _, conn = _timed_transfer("minrtt", [wifi_config(0.3)], 300_000)
    rtt = conn.subflows[0].rtt.mean_rtt
    return CheckResult(
        name="bufferbloat_rtt",
        passed=rtt > 0.5,
        measured=rtt,
        expectation="> 0.5 s mean RTT at 0.3 Mbps (Table 2 regime)",
    )


def check_ecf_no_regression() -> CheckResult:
    """ECF completes a heterogeneous bulk transfer at least as fast as the
    default scheduler (within 10%)."""
    default, _ = _timed_transfer(
        "minrtt", [wifi_config(1.0), lte_config(8.6)], 2_000_000
    )
    ecf, _ = _timed_transfer(
        "ecf", [wifi_config(1.0), lte_config(8.6)], 2_000_000
    )
    ratio = ecf / default if default > 0 else float("inf")
    return CheckResult(
        name="ecf_no_regression",
        passed=ratio <= 1.10,
        measured=ratio,
        expectation="ECF/default completion ratio <= 1.10",
    )


#: The full battery, in execution order.
ALL_CHECKS: Tuple[Callable[[], CheckResult], ...] = (
    check_single_path_goodput,
    check_aggregation,
    check_delivery_exactness,
    check_bufferbloat_rtt,
    check_ecf_no_regression,
)


def validate_transport() -> FidelityReport:
    """Run every fidelity check and collect the report."""
    report = FidelityReport()
    for check in ALL_CHECKS:
        report.checks.append(check())
    return report
