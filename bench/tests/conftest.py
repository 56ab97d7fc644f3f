"""Run with ``python -m pytest bench/tests -q`` from the repo root.

Outside the Tier-1 ``testpaths`` on purpose: these tests exercise the
benchmark, not the program.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)

for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
# Pool workers import ``repro`` too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
)
