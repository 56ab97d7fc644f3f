"""The examples are users of the public API: each one imports, and the
tutorial scheduler runs a transfer, so API drift fails here first."""

import pytest

from repro.analysis import events
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.sim.engine import Simulator
from tests.conftest import EXAMPLES, build_path, drain, load_example


@pytest.mark.parametrize("name", sorted(path.stem for path in EXAMPLES.glob("*.py")))
def test_every_example_imports(name):
    assert callable(load_example(name).main)


def test_the_tutorial_scheduler_runs_a_two_path_transfer():
    sim = Simulator()
    paths = [
        build_path(sim, rate, delay, name=f"p{i}")
        for i, (rate, delay) in enumerate(((10.0, 0.005), (2.0, 0.05)))
    ]
    scheduler = load_example("custom_scheduler").BacklogAwareScheduler(backlog_rtts=0.5)
    conn = MptcpConnection(sim, paths, scheduler, config=ConnectionConfig(handshake_delays=False))
    with events.recording() as log:
        conn.write(1_000_000)
        drain(sim)
    assert conn.delivered_bytes == 1_000_000
    sent = [e for e in log.of_kind(events.SegmentSent) if not e.retransmitted]
    slow = [e.dsn for e in sent if e.sf_id == 1]
    # The override reached the wire: the slow path took the backlog's tail.
    assert slow and max(slow) >= 1_000_000 - conn.mss
    assert [e.dsn for e in sent] != sorted(e.dsn for e in sent)
