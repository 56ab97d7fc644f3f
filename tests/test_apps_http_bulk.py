"""Tests for the HTTP session and bulk-download harness."""

import pytest

from repro.apps.bulk import BulkDownloadSpec, run_bulk
from repro.apps.http import HttpSession
from repro.net.profiles import lte_config, wifi_config
from tests.conftest import build_connection, drain


@pytest.fixture
def session(sim):
    conn = build_connection(sim)
    return HttpSession(sim, conn)


class TestHttpSession:
    def test_get_delivers_full_response(self, sim, session):
        done = []
        session.get(100_000, done.append)
        drain(sim)
        assert len(done) == 1
        assert done[0].size == 100_000

    def test_completion_time_includes_request_latency(self, sim, session):
        done = []
        session.get(1448, done.append)
        drain(sim)
        result = done[0]
        # One-way request + handshake-free response round trip >= base RTT.
        assert result.completion_time >= 0.02
        assert result.issued_at == 0.0
        # A single-segment response arrives all at once.
        assert result.completed_at >= result.first_byte_at > result.issued_at

    def test_sequential_gets_complete_in_order(self, sim, session):
        order = []
        session.get(50_000, lambda r: order.append(r.index))
        session.get(50_000, lambda r: order.append(r.index))
        drain(sim)
        assert order == [0, 1]

    def test_get_validates_size(self, sim, session):
        with pytest.raises(ValueError):
            session.get(0)

    def test_results_recorded(self, sim, session):
        session.get(10_000)
        session.get(20_000)
        drain(sim)
        assert [r.size for r in session.results] == [10_000, 20_000]

    def test_observers_fire_for_every_get(self, sim, session):
        seen = []
        session.observers.append(lambda r: seen.append(r.index))
        session.get(10_000)
        session.get(10_000)
        drain(sim)
        assert seen == [0, 1]

    def test_throughput_property(self, sim, session):
        done = []
        session.get(100_000, done.append)
        drain(sim)
        assert done[0].throughput_bps > 0

    def test_pipelined_gets_all_complete(self, sim, session):
        done = []
        for _ in range(5):
            session.get(30_000, done.append)
        drain(sim)
        assert len(done) == 5


class TestBulkDownload:
    PATHS = (wifi_config(2.0), lte_config(8.6))

    def test_download_completes(self):
        result = run_bulk(BulkDownloadSpec("minrtt", self.PATHS, 256 * 1024))
        assert result.completion_time > 0
        assert sum(result.payload_by_path.values()) >= 256 * 1024

    def test_larger_files_take_longer(self):
        small = run_bulk(BulkDownloadSpec("minrtt", self.PATHS, 64 * 1024))
        large = run_bulk(BulkDownloadSpec("minrtt", self.PATHS, 1024 * 1024))
        assert large.completion_time > small.completion_time

    def test_all_schedulers_complete(self):
        for name in ("minrtt", "ecf", "blest", "daps"):
            result = run_bulk(BulkDownloadSpec(name, self.PATHS, 128 * 1024))
            assert result.scheduler == name
            assert result.completion_time > 0

    def test_small_transfer_mostly_on_primary(self):
        """Secondary joins a handshake later: tiny objects ride WiFi."""
        result = run_bulk(BulkDownloadSpec("minrtt", self.PATHS, 16 * 1024))
        assert result.payload_by_path["wifi"] >= result.payload_by_path["lte"]

    def test_timeout_raises(self):
        slow = (wifi_config(0.3),)
        with pytest.raises(RuntimeError):
            run_bulk(BulkDownloadSpec("minrtt", slow, 10_000_000, timeout=1.0))

    def test_deterministic_given_seed(self):
        a = run_bulk(BulkDownloadSpec("ecf", self.PATHS, 256 * 1024, seed=5))
        b = run_bulk(BulkDownloadSpec("ecf", self.PATHS, 256 * 1024, seed=5))
        assert a.completion_time == b.completion_time

    def test_throughput_property(self):
        result = run_bulk(BulkDownloadSpec("minrtt", self.PATHS, 512 * 1024))
        assert result.throughput_bps == pytest.approx(
            512 * 1024 * 8 / result.completion_time
        )
