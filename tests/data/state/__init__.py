"""Seeded state-model fixtures for the RPR91x rules (linted, not run).

Each module plants exactly one class-state pathology the auditor exists
to catch -- ``__slots__`` drifting from the fields actually assigned,
fork-unsafe handles reachable from the simulator root, and a
``STATE_FIELDS`` contract that lies about the observed fields -- plus
one deliberately clean module and one whose seeds are suppressed with
``# repro: noqa[RPR91x]``.  ``tests/test_state.py`` asserts all of it,
rule by rule.
"""
