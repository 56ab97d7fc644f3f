"""Seeded lint-violation fixture (never imported, only linted).

``tests/test_analysis.py`` runs ``python -m repro.cli lint`` over this
file and asserts a non-zero exit: one deliberate violation per rule.
``tests/conftest.py`` keeps ``tests/data`` out of collection, so pytest
never imports it.
"""

import heapq  # RPR901: event-queue access outside repro.sim.engine
import random
import time
from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.sim.codec import _PLANS  # RPR701: cross-package private import


def stamp():
    return time.time()  # RPR101: wall clock


def jitter():
    return random.random()  # RPR102: module-level draw


def make_rng(seed):
    return random.Random(seed)  # RPR103: ad-hoc construction


def collect(values, into=[]):  # RPR201: mutable default
    into.extend(values)
    return into


def is_due(now, deadline):
    return now == deadline  # RPR301: float == on timestamps


@dataclass
class BrokenSpec:  # RPR401: spec dataclass not frozen
    kind: ClassVar[str] = "broken"
    sim: Optional["Simulator"] = None  # RPR402: live object field  # noqa: F821
    scheduler: str = "warpdrive"  # RPR501: unknown scheduler kind


def sneak_event(sim, timer):
    heapq.heappush(sim._heap, (0.0, 0, 0, timer))  # RPR901: bypasses Simulator.schedule


def chatty_progress(done, total):
    print(f"{done}/{total}")  # RPR601: stdout write outside the CLI
