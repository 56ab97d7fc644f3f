"""Bench shim: ROADMAP item 3 deletes this module with ``sim.snapshot``."""

from repro.apps.bulk import build_world, finish  # noqa: F401 -- the bench imports them here
