"""Table 2: average RTT per regulated bandwidth.

Paper values (ms)::

    Bandwidth   0.3  0.7  1.1  1.7  4.2  8.6
    WiFi RTT    969  413  273  196   87   40
    LTE  RTT    858  416  268  210  131  105

The RTT is an emergent property of our queue model under a busy subflow.
We measure it from a saturating single-path transfer per regulation, and
assert the two shape properties the paper's table shows: RTT falls
monotonically with bandwidth, and the low-bandwidth regulations show
second-scale bufferbloat.
"""

from bench_common import check_claims, run_once, write_output
from repro.experiments.report import Claim
from repro.core.spec import SchedulerSpec, build
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.profiles import lte_config, make_path, wifi_config
from repro.sim.engine import Simulator

BANDWIDTHS = (0.3, 0.7, 1.1, 1.7, 4.2, 8.6)
PAPER = {
    "wifi": {0.3: 969, 0.7: 413, 1.1: 273, 1.7: 196, 4.2: 87, 8.6: 40},
    "lte": {0.3: 858, 0.7: 416, 1.1: 268, 1.7: 210, 4.2: 131, 8.6: 105},
}


def measure_rtt(config_factory, rate_mbps: float) -> float:
    sim = Simulator()
    path = make_path(sim, config_factory(rate_mbps))
    conn = MptcpConnection(
        sim, [path], build(SchedulerSpec.of("minrtt")),
        config=ConnectionConfig(handshake_delays=False),
    )
    conn.write(int(rate_mbps * 1e6))  # ~8 seconds of saturation
    sim.run(until=60.0)
    return conn.subflows[0].rtt.mean_rtt


def test_tab02_rtt_vs_bandwidth(benchmark):
    def compute():
        return {
            "wifi": {bw: measure_rtt(wifi_config, bw) for bw in BANDWIDTHS},
            "lte": {bw: measure_rtt(lte_config, bw) for bw in BANDWIDTHS},
        }

    measured = run_once(benchmark, compute)
    lines = ["iface  bw_Mbps  measured_ms  paper_ms"]
    for iface in ("wifi", "lte"):
        for bw in BANDWIDTHS:
            lines.append(
                f"{iface:5s}  {bw:7.1f}  {measured[iface][bw] * 1e3:11.0f}  "
                f"{PAPER[iface][bw]:8d}"
            )
    write_output("tab02_rtt", "\n".join(lines))

    paper = "avg RTT falls from ~970 ms (0.3 Mbps) to 40-105 ms (8.6 Mbps); LTE's floor above WiFi's"
    check_claims("tab02_rtt", [
        # RTT decreases with bandwidth...
        *(
            Claim(
                f"tab02_rtt.{iface}_falls",
                f"{iface.upper()} mean RTT (s) falls as the regulated bandwidth rises",
                paper, {f"{bw:g}": measured[iface][bw] for bw in BANDWIDTHS},
                chain=tuple(f"{bw:g}" for bw in BANDWIDTHS), op=">=",
            )
            for iface in ("wifi", "lte")
        ),
        # ...with second-scale bufferbloat at 0.3 Mbps and modest RTT at 8.6.
        Claim(
            "tab02_rtt.bufferbloat",
            "WiFi mean RTT at 0.3 Mbps is above 0.5 s",
            paper, {"wifi 0.3": measured["wifi"][0.3]}, op="<", lo=0.5,
        ),
        Claim(
            "tab02_rtt.fast_floor",
            "WiFi mean RTT at 8.6 Mbps is below 0.2 s",
            paper, {"wifi 8.6": measured["wifi"][8.6]}, op="<", hi=0.2,
        ),
        # LTE keeps a higher floor than WiFi at high bandwidth.
        Claim(
            "tab02_rtt.lte_floor",
            "At 8.6 Mbps, LTE's mean RTT (s) is above WiFi's",
            paper, {"lte": measured["lte"][8.6], "wifi": measured["wifi"][8.6]},
            chain=("lte", "wifi"), op=">",
        ),
    ])
