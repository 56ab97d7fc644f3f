"""Extension experiment: coupled congestion control on a shared bottleneck.

Not a paper figure -- a validation of the congestion-control substrate the
paper's results ride on.  Both MPTCP subflows traverse one shared
bottleneck alongside a single-path TCP flow; RFC 6356's design goal is
that the MPTCP connection takes no more than a single TCP flow would,
while uncoupled Reno subflows grab roughly two shares.
"""

from bench_common import check_claims, run_once, write_output
from repro.experiments.report import Claim
from repro.core.spec import SchedulerSpec, build
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.topology import LinkSpec, shared_bottleneck, chain_path
from repro.sim.engine import Simulator

BOTTLENECK_MBPS = 6.0
DURATION = 60.0


def run_contest(mptcp_cc: str) -> dict:
    """One MPTCP connection (2 subflows) vs one TCP flow, same bottleneck."""
    sim = Simulator()
    bottleneck = LinkSpec(BOTTLENECK_MBPS, 0.01, queue_bytes=120_000, name="bn")
    mptcp_paths = shared_bottleneck(
        sim,
        access_a=LinkSpec(50.0, 0.005, name="a"),
        access_b=LinkSpec(50.0, 0.006, name="b"),
        bottleneck=bottleneck,
    )
    # The single-path competitor crosses the *same* shared Link instance.
    shared_link = mptcp_paths[0].forward.hops[1]
    tcp_path = chain_path(
        sim, "tcp",
        [LinkSpec(50.0, 0.005, name="tcp-access")],
    )
    tcp_path.forward.hops.append(shared_link)

    mptcp = MptcpConnection(
        sim, mptcp_paths, build(SchedulerSpec.of("minrtt")),
        config=ConnectionConfig(handshake_delays=False, congestion_control=mptcp_cc),
        name="mptcp",
    )
    tcp = MptcpConnection(
        sim, [tcp_path], build(SchedulerSpec.of("minrtt")),
        config=ConnectionConfig(handshake_delays=False, congestion_control="reno"),
        name="tcp",
    )
    saturate = int(BOTTLENECK_MBPS * 1e6 / 8 * DURATION * 2)
    mptcp.write(saturate)
    tcp.write(saturate)
    sim.run(until=DURATION)
    return {
        "mptcp_mbps": mptcp.delivered_bytes * 8 / DURATION / 1e6,
        "tcp_mbps": tcp.delivered_bytes * 8 / DURATION / 1e6,
    }


def test_ext_shared_bottleneck_fairness(benchmark):
    def compute():
        return {cc: run_contest(cc) for cc in ("coupled", "olia", "reno")}

    results = run_once(benchmark, compute)
    lines = [
        f"shared bottleneck {BOTTLENECK_MBPS} Mbps: 2-subflow MPTCP vs 1 TCP flow",
        "mptcp_cc   mptcp_Mbps  tcp_Mbps  mptcp_share",
    ]
    shares = {}
    for cc, row in results.items():
        total = row["mptcp_mbps"] + row["tcp_mbps"]
        shares[cc] = row["mptcp_mbps"] / total if total else 0.0
        lines.append(
            f"{cc:8s}  {row['mptcp_mbps']:10.2f}  {row['tcp_mbps']:8.2f}  "
            f"{shares[cc]:11.2f}"
        )
    write_output("ext_shared_bottleneck", "\n".join(lines))

    rfc = "RFC 6356's fairness goal (not a paper figure)"
    check_claims("ext_shared_bottleneck", [
        Claim(
            "ext_shared_bottleneck.reno_over_coupled",
            "Uncoupled Reno subflows take a larger share of the bottleneck than coupled (LIA) ones",
            rfc, {"reno": shares["reno"], "coupled": shares["coupled"]},
            chain=("reno", "coupled"), op=">",
        ),
        Claim(
            "ext_shared_bottleneck.coupled_share",
            "Coupled MPTCP stays near a single flow's share of the bottleneck",
            rfc, {"coupled share": shares["coupled"]}, op="<", hi=0.70,
        ),
        Claim(
            "ext_shared_bottleneck.pipe_used",
            f"The {BOTTLENECK_MBPS:g} Mbps pipe is used under every controller (Mbps, MPTCP + TCP)",
            rfc, {"total": [row["mptcp_mbps"] + row["tcp_mbps"] for row in results.values()]},
            op="<", lo=BOTTLENECK_MBPS * 0.7,
        ),
    ])
