#!/usr/bin/env python3
"""Tutorial: writing your own MPTCP path scheduler.

The scheduler API is two methods.  ``select(conn)`` returns the subflow
that should carry the next segment, or ``None`` to wait for a better one;
``next_segment(conn, subflow)`` returns the ``(dsn, payload)`` range that
subflow carries (the default: a queued reinjection, else the lowest
unassigned bytes).  Both are pure policy: the connection books the range
in its DSN ledger, counts every answer into the scheduler's
``decisions`` / ``waits`` and logs it as one ``events.Decision`` record,
so a custom scheduler keeps no bookkeeping and shows up in the event log
and the timeline like the built-ins.  This example implements a
"deadline-aware" toy scheduler -- use the slow path only while the
backlog is large enough to keep the fast path busy for more than one RTT,
and give it the *last* queued bytes -- and benchmarks it against the
built-ins on the paper's flagship heterogeneous configuration.

Run:
    python examples/custom_scheduler.py
"""

from repro.apps.bulk import BulkDownloadSpec, run_bulk
from repro.core.base import Scheduler
from repro.core.spec import SchedulerSpec
from repro.net.profiles import lte_config, wifi_config


class BacklogAwareScheduler(Scheduler):
    """Toy scheduler: the slow path is for bulk only.

    Uses the fastest open subflow whenever possible; a slower subflow is
    used only while the unscheduled backlog exceeds ``backlog_rtts``
    round-trips of the fastest subflow's capacity.  (ECF makes a sharper
    version of the same call by estimating both completion times.)  A
    slower subflow carries the backlog's last bytes, so the fast one keeps
    the head of the stream in order (DAPS's idea, in miniature).
    """

    name = "backlog"

    def __init__(self, backlog_rtts: float = 2.0) -> None:
        super().__init__()
        self.backlog_rtts = backlog_rtts

    def select(self, conn):
        fastest, second = self.fastest_and_sendable(conn)
        if second is None:
            return None
        if second is fastest:
            return fastest
        backlog_segments = conn.unassigned_bytes / conn.mss
        keep_fast_busy = self.backlog_rtts * max(fastest.cwnd, 1.0)
        if backlog_segments > keep_fast_busy:
            return second
        return None

    def next_segment(self, conn, subflow):
        fastest, _ = self.fastest_and_sendable(conn)
        if conn.reinjecting or subflow is fastest:
            return super().next_segment(conn, subflow)
        start, end = conn.unassigned_runs[-1]
        payload = min(conn.mss, end - start)
        if end - conn.conn_una > conn.effective_send_window:
            return super().next_segment(conn, subflow)  # the tail is out of reach
        return end - payload, payload


def main() -> None:
    # Register so a BulkDownloadSpec can name it.
    SchedulerSpec.register("backlog", BacklogAwareScheduler)

    paths = (wifi_config(0.3), lte_config(8.6))
    size = 2 * 1024 * 1024
    print(f"2 MB download over 0.3 Mbps WiFi + 8.6 Mbps LTE\n")
    print(f"{'scheduler':<12}{'time (s)':>9}")
    for name in ("minrtt", "ecf", "backlog"):
        result = run_bulk(
            BulkDownloadSpec(scheduler=name, path_configs=paths, size=size, seed=3)
        )
        print(f"{name:<12}{result.completion_time:>9.2f}")
    print(
        "\nOn a single bulk download an aggressive backlog threshold can"
        "\nbeat even ECF by refusing the slow path sooner -- but it buys"
        "\nthat with idle fast-path time whenever the backlog estimate is"
        "\nwrong.  Run the streaming and web benchmarks to see the toy"
        "\nheuristic fall behind where completion-time modelling matters."
    )


if __name__ == "__main__":
    main()
