"""Application layer: HTTP, bulk downloads, and DASH video streaming.

Each name is imported from its module: :mod:`repro.apps.http`,
:mod:`repro.apps.bulk` and the :mod:`repro.apps.dash` modules.
"""
