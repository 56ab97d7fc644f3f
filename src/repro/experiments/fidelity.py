"""Executable fidelity checks: the DESIGN.md invariants as library calls.

Downstream users extending the simulator (new schedulers, new congestion
controllers, different link models) can re-validate the substrate with
one call::

    from repro.experiments.fidelity import validate_transport
    report = validate_transport()
    assert report.passed, report.summary()

Each check is cheap (a few seconds in total) and returns a band or
ordering :class:`~repro.experiments.report.Claim` over its measured values,
so drift can be inspected rather than just detected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.core.spec import SchedulerSpec, build
from repro.experiments.report import Claim
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.packet import HEADER_SIZE, MSS
from repro.net.profiles import lte_config, make_path, wifi_config
from repro.sim.engine import Simulator


@dataclass
class FidelityReport:
    """Every check's :class:`~repro.experiments.report.Claim`, and their verdicts."""

    checks: List[Claim] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.evaluate() == "holds" for check in self.checks)

    def summary(self) -> str:
        return "\n".join(
            f"[{'ok  ' if check.evaluate() == 'holds' else 'FAIL'}] {check.id}: {check.measured()} ({check.text})"
            for check in self.checks
        )


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


def check_single_path_goodput() -> Claim:
    """A saturating transfer achieves 90-100% of the wire ceiling: the
    link rate times a full segment's payload share, MSS / (MSS + HEADER_SIZE)."""
    ceiling = 8.6 * MSS / (MSS + HEADER_SIZE)
    elapsed, _ = _timed_transfer("minrtt", [lte_config(8.6)], 10_000_000)
    return Claim(
        "single_path_goodput", "Mbps of payload on an 8.6 Mbps link", "",
        {"goodput": 10_000_000 * 8 / elapsed / 1e6}, lo=0.9 * ceiling, hi=ceiling,
    )


def check_aggregation() -> Claim:
    """Two homogeneous paths beat one by a clear margin."""
    single, _ = _timed_transfer("minrtt", [wifi_config(8.6)], 10_000_000)
    double, _ = _timed_transfer("minrtt", [wifi_config(8.6), lte_config(8.6)], 10_000_000)
    return Claim(
        "two_path_aggregation", "speedup of a second equal path", "",
        {"speedup": single / double if double > 0 else 0.0}, op="<", lo=1.4,
    )


def check_delivery_exactness() -> Claim:
    """The in-order stream is exact under heterogeneity."""
    _, conn = _timed_transfer("ecf", [wifi_config(0.3), lte_config(8.6)], 2_000_000)
    return Claim(
        "delivery_exactness", "bytes delivered in order, and with those still buffered", "",
        {"in order": conn.receiver.expected_dsn,
         "in order + buffered": conn.receiver.expected_dsn + conn.receiver.buffered_bytes},
        lo=2_000_000, hi=2_000_000,
    )


def check_bufferbloat_rtt() -> Claim:
    """Saturating a 0.3 Mbps regulation inflates RTT to the second scale."""
    _, conn = _timed_transfer("minrtt", [wifi_config(0.3)], 300_000)
    return Claim(
        "bufferbloat_rtt", "mean RTT (s) at 0.3 Mbps, the Table 2 regime", "",
        {"rtt": conn.subflows[0].rtt.mean_rtt}, op="<", lo=0.5,
    )


def check_ecf_no_regression() -> Claim:
    """ECF completes a heterogeneous bulk transfer at least as fast as the
    default scheduler (within 10%)."""
    default, _ = _timed_transfer("minrtt", [wifi_config(1.0), lte_config(8.6)], 2_000_000)
    ecf, _ = _timed_transfer("ecf", [wifi_config(1.0), lte_config(8.6)], 2_000_000)
    return Claim(
        "ecf_no_regression", "ECF / default completion time", "",
        {"ratio": ecf / default if default > 0 else float("inf")}, hi=1.10,
    )


#: The full battery, in execution order.
ALL_CHECKS: Tuple[Callable[[], Claim], ...] = (
    check_single_path_goodput,
    check_aggregation,
    check_delivery_exactness,
    check_bufferbloat_rtt,
    check_ecf_no_regression,
)


def validate_transport() -> FidelityReport:
    """Run every fidelity check and collect the report."""
    return FidelityReport([check() for check in ALL_CHECKS])
