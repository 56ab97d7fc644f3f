"""Tests for multi-hop topologies and the results exporters."""

import json

import pytest

from repro.core.spec import SchedulerSpec, build
from repro.experiments.runner import StreamingRunConfig, run_streaming
from repro.metrics.export import (
    load_streaming_results_json,
    streaming_result_to_dict,
    write_cdf_csv,
    write_matrix_csv,
    write_series_csv,
    write_streaming_results_json,
)
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.net.packet import Packet
from repro.net.topology import CompositeForward, LinkSpec, chain_path, shared_bottleneck


class TestCompositeForward:
    def test_requires_hops(self):
        with pytest.raises(ValueError):
            CompositeForward([])

    def test_bottleneck_rate_and_total_delay(self, sim):
        chain = CompositeForward([
            LinkSpec(10.0, 0.01).build(sim, None, "h0"),
            LinkSpec(2.0, 0.03).build(sim, None, "h1"),
        ])
        assert chain.rate_bps == 2e6
        assert chain.delay == pytest.approx(0.04)

    def test_packet_traverses_all_hops(self, sim):
        chain = CompositeForward([
            LinkSpec(10.0, 0.01).build(sim, None, "h0"),
            LinkSpec(10.0, 0.02).build(sim, None, "h1"),
        ])
        arrivals = []
        chain.send(Packet(size=1250), lambda p: arrivals.append(sim.now))
        sim.run()
        # Two serializations (1 ms each) + 30 ms propagation.
        assert arrivals == [pytest.approx(0.032)]

    def test_drop_at_second_hop_counts(self, sim):
        first = LinkSpec(100.0, 0.0, queue_bytes=1_000_000).build(sim, None, "h0")
        second = LinkSpec(0.1, 0.0, queue_bytes=1_500).build(sim, None, "h1")
        chain = CompositeForward([first, second])
        delivered = []
        for _ in range(10):
            chain.send(Packet(size=1000), lambda p: delivered.append(p))
        sim.run()
        assert chain.total_drops() > 0
        assert len(delivered) + chain.total_drops() == 10

    def test_set_rate_touches_entry_hop(self, sim):
        chain = CompositeForward([
            LinkSpec(10.0, 0.01).build(sim, None, "h0"),
            LinkSpec(20.0, 0.01).build(sim, None, "h1"),
        ])
        chain.set_rate(5e6)
        assert chain.hops[0].rate_bps == 5e6
        assert chain.hops[1].rate_bps == 20e6


class TestChainPath:
    def test_mptcp_over_multihop_path_completes(self, sim):
        path = chain_path(
            sim, "multihop",
            [LinkSpec(10.0, 0.005), LinkSpec(5.0, 0.01), LinkSpec(8.0, 0.005)],
        )
        conn = MptcpConnection(
            sim, [path], build(SchedulerSpec.of("minrtt")),
            config=ConnectionConfig(handshake_delays=False),
        )
        conn.write(1_000_000)
        sim.run(until=60.0)
        assert conn.delivered_bytes == 1_000_000

    def test_goodput_limited_by_bottleneck_hop(self, sim):
        path = chain_path(
            sim, "multihop",
            [LinkSpec(50.0, 0.005), LinkSpec(2.0, 0.01)],
        )
        conn = MptcpConnection(
            sim, [path], build(SchedulerSpec.of("minrtt")),
            config=ConnectionConfig(handshake_delays=False),
        )
        conn.write(2_000_000)
        sim.run(until=120.0)
        elapsed = max(conn.receiver.last_arrival_by_subflow.values())
        goodput_mbps = 2_000_000 * 8 / elapsed / 1e6
        assert goodput_mbps <= 2.0


class TestSharedBottleneck:
    def test_two_subflows_contend_for_shared_link(self, sim):
        paths = shared_bottleneck(
            sim,
            access_a=LinkSpec(20.0, 0.005, name="a"),
            access_b=LinkSpec(20.0, 0.02, name="b"),
            bottleneck=LinkSpec(5.0, 0.01, name="bn"),
        )
        conn = MptcpConnection(
            sim, paths, build(SchedulerSpec.of("minrtt")),
            config=ConnectionConfig(handshake_delays=False),
        )
        conn.write(3_000_000)
        sim.run(until=120.0)
        assert conn.delivered_bytes == 3_000_000
        elapsed = max(conn.receiver.last_arrival_by_subflow.values())
        goodput_mbps = 3_000_000 * 8 / elapsed / 1e6
        # Two subflows cannot exceed the single 5 Mbps shared bottleneck.
        assert goodput_mbps <= 5.0

    def test_coupled_cc_yields_to_bottleneck_capacity(self, sim):
        """With coupled CC over a shared bottleneck, the aggregate stays
        near what a single flow would get (no 2x grab)."""
        paths = shared_bottleneck(
            sim,
            access_a=LinkSpec(20.0, 0.005, name="a"),
            access_b=LinkSpec(20.0, 0.006, name="b"),
            bottleneck=LinkSpec(4.0, 0.01, name="bn"),
        )
        conn = MptcpConnection(
            sim, paths, build(SchedulerSpec.of("roundrobin")),
            config=ConnectionConfig(handshake_delays=False, congestion_control="coupled"),
        )
        conn.write(2_000_000)
        sim.run(until=120.0)
        assert conn.delivered_bytes == 2_000_000


class TestExport:
    def test_series_csv_roundtrip(self, tmp_path):
        target = tmp_path / "series.csv"
        write_series_csv(target, [(1.0, 2.0), (3.0, 4.0)])
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1.0,2.0"

    def test_cdf_csv(self, tmp_path):
        target = tmp_path / "cdf.csv"
        write_cdf_csv(target, [1.0, 2.0, 2.0, 5.0])
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "value,cdf"
        assert len(lines) == 4  # header + 3 distinct values

    def test_ccdf_csv(self, tmp_path):
        target = tmp_path / "ccdf.csv"
        write_cdf_csv(target, [1.0, 2.0], complementary=True)
        assert "ccdf" in target.read_text().splitlines()[0]

    def test_matrix_csv(self, tmp_path):
        target = tmp_path / "matrix.csv"
        write_matrix_csv(target, {(0.3, 8.6): 0.7, (8.6, 8.6): 0.9})
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "wifi_mbps,lte_mbps,value"
        assert len(lines) == 3

    def test_writers_create_parent_directories(self, tmp_path):
        # Regression: writers used to fail with FileNotFoundError when
        # pointed at a fresh output tree (e.g. results/run3/cdf.csv).
        deep = tmp_path / "results" / "run3"
        write_series_csv(deep / "series.csv", [(1.0, 2.0)])
        write_cdf_csv(deep / "sub" / "cdf.csv", [1.0, 2.0])
        write_matrix_csv(deep / "matrix" / "m.csv", {(0.3, 8.6): 0.7})
        assert (deep / "series.csv").exists()
        assert (deep / "sub" / "cdf.csv").exists()
        assert (deep / "matrix" / "m.csv").exists()
        result = run_streaming(StreamingRunConfig(
            scheduler="minrtt", wifi_mbps=4.2, lte_mbps=8.6, video_duration=6.0
        ))
        write_streaming_results_json(deep / "json" / "runs.json", [result])
        assert load_streaming_results_json(deep / "json" / "runs.json")

    def test_streaming_results_json_roundtrip(self, tmp_path):
        result = run_streaming(StreamingRunConfig(
            scheduler="ecf", wifi_mbps=4.2, lte_mbps=8.6, video_duration=15.0
        ))
        target = tmp_path / "runs.json"
        write_streaming_results_json(target, [result])
        loaded = load_streaming_results_json(target)
        assert len(loaded) == 1
        assert loaded[0]["scheduler"] == "ecf"
        assert loaded[0]["chunks"]
        assert loaded[0]["average_bitrate_bps"] == pytest.approx(
            result.average_bitrate_bps
        )

    def test_load_rejects_non_array(self, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(ValueError):
            load_streaming_results_json(target)

    def test_result_dict_is_json_serializable(self):
        result = run_streaming(StreamingRunConfig(
            scheduler="minrtt", wifi_mbps=8.6, lte_mbps=8.6, video_duration=10.0
        ))
        json.dumps(streaming_result_to_dict(result))
