#!/usr/bin/env python3
"""Quickstart: transfer a file over MPTCP with different path schedulers.

Builds the paper's flagship heterogeneous configuration -- a 0.3 Mbps WiFi
path (the Android primary) and an 8.6 Mbps LTE path -- and downloads the
same 2 MB object under each scheduler, printing completion time and how
the bytes were split across paths.  Each download is one frozen
``BulkDownloadSpec`` handed to ``run_bulk`` -- the spec is the only way in.

Run:
    python examples/quickstart.py
"""

from repro import SCHEDULER_NAMES
from repro.apps.bulk import BulkDownloadSpec, run_bulk
from repro.net.profiles import lte_config, wifi_config

OBJECT_SIZE = 2 * 1024 * 1024
PATHS = (wifi_config(0.3), lte_config(8.6))


def main() -> None:
    print(f"Downloading {OBJECT_SIZE // 1024} kB over 0.3 Mbps WiFi + 8.6 Mbps LTE\n")
    print(f"{'scheduler':<12}{'time (s)':>9}{'wifi kB':>10}{'lte kB':>9}{'reinject':>10}")
    for name in SCHEDULER_NAMES:
        result = run_bulk(
            BulkDownloadSpec(scheduler=name, path_configs=PATHS, size=OBJECT_SIZE, seed=1)
        )
        wifi_kb = result.payload_by_path.get("wifi", 0) / 1024
        lte_kb = result.payload_by_path.get("lte", 0) / 1024
        print(
            f"{name:<12}{result.completion_time:>9.2f}{wifi_kb:>10.0f}"
            f"{lte_kb:>9.0f}{result.reinjections:>10d}"
        )
    print(
        "\nNote how RTT-agnostic schedulers leave more bytes stranded on the"
        "\nslow WiFi path, and how ECF keeps the transfer on the fast path"
        "\nwhenever waiting for it finishes sooner."
    )


if __name__ == "__main__":
    main()
